package main

import (
	"sort"

	"pooldcs/internal/event"
)

// sampleEvery is the stride of the answers whose full result set is
// compared with the oracle's by Seq, by plain linear filter; every
// answer gets the soundness and cardinality checks.
const sampleEvery = 64

// verdict is the oracle's judgement of one answer.
type verdict int

const (
	answerOK verdict = iota
	// answerPartial is an answer short of the oracle that said so
	// (Complete() false): not a failure, it lowers recall instead.
	answerPartial
	// answerUnsound holds an event that does not match the query or
	// that was never stored.
	answerUnsound
	// answerDuplicate holds an event twice, or more events than exist.
	answerDuplicate
	// answerShort misses events while claiming to be complete.
	answerShort
)

func (v verdict) failed() bool { return v >= answerUnsound }

func (v verdict) String() string {
	return [...]string{"ok", "partial", "unsound", "duplicate", "short"}[v]
}

// stamped is one insert with the clock values at which it was launched
// and acknowledged. The clock is whatever orders the workload's
// operations: the position in a synchronous operation list, or a tick
// per callback where inserts run beside queries.
type stamped struct {
	ev       event.Event
	launched int
	acked    int // -1: never acknowledged
}

// oracle is the brute-force reference: a flat slice of every insert,
// answered by linear filter. An answer to a query launched at clock l
// and completed at clock d must hold every matching event acknowledged
// before l and may hold those launched before d.
//
// The sampled answers are judged by the plain linear filter over the
// whole slice. The others need only counts, and workloads ask up to a
// hundred thousand queries of up to a hundred thousand events, so the
// counts narrow the scan first: point queries through an exact-value
// index, ranges through the events sorted by their first attribute.
type oracle struct {
	events []stamped
	byKey  map[[3]float64][]int32 // exact values -> positions in events
	byDim0 []stamped              // a copy of events ordered by Values[0]; nil when stale
	// lost, when set, holds the Seq of acked events the store no longer
	// had at the end of the run (a double fault took primary and mirror).
	// An answer missing only such events still lowers recall but is not
	// held to have claimed completeness falsely. Full checks only.
	lost map[uint64]bool
}

func newOracle() *oracle { return &oracle{byKey: make(map[[3]float64][]int32)} }

// add records one insert.
func (o *oracle) add(e event.Event, launched, acked int) {
	if len(e.Values) == 3 {
		k := [3]float64{e.Values[0], e.Values[1], e.Values[2]}
		o.byKey[k] = append(o.byKey[k], int32(len(o.events)))
	}
	o.events = append(o.events, stamped{ev: e, launched: launched, acked: acked})
	o.byDim0 = nil
}

// ack records one insert of a synchronous operation list, stamped with
// its position.
func (o *oracle) ack(e event.Event) { o.add(e, len(o.events), len(o.events)) }

// candidates calls f with every insert that can match the rewritten
// query rq, and possibly others.
func (o *oracle) candidates(rq event.Query, f func(s *stamped)) {
	if rq.Classify() == event.ExactPoint && len(rq.Ranges) == 3 {
		for _, i := range o.byKey[[3]float64{rq.Ranges[0].L, rq.Ranges[1].L, rq.Ranges[2].L}] {
			f(&o.events[i])
		}
		return
	}
	if o.byDim0 == nil {
		o.byDim0 = append([]stamped(nil), o.events...)
		sort.SliceStable(o.byDim0, func(a, b int) bool { return o.byDim0[a].ev.Values[0] < o.byDim0[b].ev.Values[0] })
	}
	lo := sort.Search(len(o.byDim0), func(i int) bool { return o.byDim0[i].ev.Values[0] >= rq.Ranges[0].L })
	for i := lo; i < len(o.byDim0) && o.byDim0[i].ev.Values[0] <= rq.Ranges[0].U; i++ {
		f(&o.byDim0[i])
	}
}

// check judges an answer to q launched at clock launchedAt and
// completed at doneAt. complete is what the system claimed about its
// own answer. With full set, the result set is compared with the
// oracle's by Seq and the recall is exact; otherwise both rest on
// counts.
func (o *oracle) check(q event.Query, got []event.Event, launchedAt, doneAt int, complete, full bool) (verdict, float64) {
	rq := q.Rewrite()
	for _, e := range got {
		if !rq.Matches(e) {
			return answerUnsound, 0
		}
	}
	owed := func(s *stamped) bool { return s.acked >= 0 && s.acked < launchedAt }
	if !full {
		must, may := 0, 0
		o.candidates(rq, func(s *stamped) {
			switch {
			case !rq.Matches(s.ev):
			case owed(s):
				must++
			case s.launched < doneAt:
				may++
			}
		})
		return judge(len(got), min(len(got), must), must, may, complete)
	}
	seen := make(map[uint64]bool, len(got))
	for _, e := range got {
		if seen[e.Seq] {
			return answerDuplicate, 0
		}
		seen[e.Seq] = true
	}
	must, may, hit, missing, allowed := 0, 0, 0, 0, 0
	for i := range o.events {
		s := &o.events[i]
		if !rq.Matches(s.ev) {
			continue
		}
		switch {
		case owed(s):
			must++
			if seen[s.ev.Seq] {
				hit++
				allowed++
			} else if !o.lost[s.ev.Seq] {
				missing++
			}
		case s.launched < doneAt:
			may++
			if seen[s.ev.Seq] {
				allowed++
			}
		}
	}
	if allowed < len(got) {
		return answerUnsound, 0 // an event that was never stored, or not yet
	}
	v, recall := judge(len(got), hit, must, may, complete)
	if v == answerShort && missing == 0 {
		v = answerPartial // short only of events the store lost
	}
	return v, recall
}

// judge turns a sound answer's size, how many of the owed events it
// holds, and the oracle's counts into a verdict and a recall.
func judge(got, hit, must, may int, complete bool) (verdict, float64) {
	recall := 1.0
	if must > 0 {
		recall = float64(hit) / float64(must)
	}
	switch {
	case got > must+may:
		return answerDuplicate, recall
	case hit < must && complete:
		return answerShort, recall
	case hit < must:
		return answerPartial, recall
	}
	return answerOK, recall
}

// digest summarises a result set independently of its order, so two
// systems' answers to one query can be compared without keeping both.
type digest struct {
	n        int
	sum, xor uint64
}

func digestOf(events []event.Event) digest {
	d := digest{n: len(events)}
	for _, e := range events {
		d.sum += e.Seq
		d.xor ^= e.Seq * 0x9e3779b97f4a7c15
	}
	return d
}
