package main

import (
	"testing"

	"pooldcs/internal/event"
)

// TestOracleCountsPlantedFaults plants a wrong, a duplicated and a
// silently truncated answer and asserts that each is counted as a
// failed operation, so that each would show in failed_ops_share and in
// the result line's "failed".
func TestOracleCountsPlantedFaults(t *testing.T) {
	or := newOracle()
	var stored []event.Event
	for i := 0; i < 200; i++ {
		e := event.Event{Values: []float64{float64(i) / 200, float64(i%7) / 7, float64(i%11) / 11}, Seq: uint64(i + 1)}
		stored = append(stored, e)
		or.ack(e)
	}
	q := event.NewQuery(event.Span(0.1, 0.6), event.Unspecified(), event.Span(0, 0.9))
	right := q.Rewrite().Filter(stored)
	if len(right) < 10 {
		t.Fatalf("test query matches only %d events", len(right))
	}
	outside := event.Event{Values: []float64{0.95, 0.5, 0.5}, Seq: 190}
	phantom := event.Event{Values: []float64{0.3, 0.5, 0.5}, Seq: 9999}
	n := len(stored)

	cases := []struct {
		name     string
		got      []event.Event
		complete bool
		want     verdict
	}{
		{"right", right, true, answerOK},
		{"honest partial", right[:len(right)-3], false, answerPartial},
		{"wrong event", append(append([]event.Event(nil), right[1:]...), outside), true, answerUnsound},
		{"phantom event", append(append([]event.Event(nil), right[1:]...), phantom), true, answerUnsound},
		{"duplicated", append(append([]event.Event(nil), right...), right[0]), true, answerDuplicate},
		{"duplicate hides a gap", append(append([]event.Event(nil), right[1:]...), right[1]), true, answerDuplicate},
		{"silently truncated", right[:len(right)-3], true, answerShort},
	}
	for _, full := range []bool{false, true} {
		r := newRun(1, 1, 1, nil)
		wantFailed := 0
		for _, c := range cases {
			r.attempt(1)
			v, _ := r.verify(or, c.name, q, c.got, n, n, c.complete, full)
			want := c.want
			// Counts alone cannot tell a phantom event that matches the
			// query, or a duplicate that hides a gap, from a right answer:
			// the sampled full comparison by Seq exists for those.
			if !full && (c.name == "phantom event" || c.name == "duplicate hides a gap") {
				want = answerOK
			}
			if v != want {
				t.Errorf("full=%v %s: verdict %v, want %v", full, c.name, v, want)
			}
			if want.failed() {
				wantFailed++
			}
		}
		if r.failed != wantFailed {
			t.Errorf("full=%v: %d operations counted as failed, want %d", full, r.failed, wantFailed)
		}
		m := values{}
		commonLayers(r, newRun(1, 1, 1, newSpans()), m)
		if got, want := m["failed_ops_share"], float64(wantFailed)/float64(len(cases)); got != want {
			t.Errorf("full=%v: failed_ops_share %v, want %v", full, got, want)
		}
	}
}

// TestOracleWindow checks the rule for inserts that run beside
// queries: an answer owes the events acknowledged before its launch
// and may hold those launched before its completion, and events the
// store lost to a double fault are not owed.
func TestOracleWindow(t *testing.T) {
	or := newOracle()
	ev := func(seq uint64) event.Event { return event.Event{Values: []float64{0.5, 0.5, 0.5}, Seq: seq} }
	or.add(ev(1), 0, 1)  // acknowledged before the query
	or.add(ev(2), 2, 6)  // in flight while the query ran
	or.add(ev(3), 9, 10) // launched after the query completed
	or.add(ev(4), 0, -1) // never acknowledged
	q := event.NewQuery(event.Span(0.4, 0.6), event.Span(0.4, 0.6), event.Span(0.4, 0.6))
	for _, full := range []bool{false, true} {
		for _, c := range []struct {
			seqs []uint64
			want verdict
		}{
			{[]uint64{1}, answerOK},
			{[]uint64{1, 2}, answerOK},
			{[]uint64{1, 2, 4}, answerOK},
			{nil, answerShort},
		} {
			var got []event.Event
			for _, s := range c.seqs {
				got = append(got, ev(s))
			}
			if v, _ := or.check(q, got, 4, 8, true, full); v != c.want {
				t.Errorf("full=%v answer %v: verdict %v, want %v", full, c.seqs, v, c.want)
			}
		}
	}
	// Which event an answer of the right size holds only shows by Seq.
	if v, _ := or.check(q, []event.Event{ev(2)}, 4, 8, true, true); v != answerShort {
		t.Errorf("the in-flight event in place of the owed one: verdict %v, want short", v)
	}
	if v, _ := or.check(q, []event.Event{ev(1), ev(3)}, 4, 8, true, true); v != answerUnsound {
		t.Errorf("an event launched after completion: verdict %v, want unsound", v)
	}
	or.lost = map[uint64]bool{1: true}
	if v, recall := or.check(q, nil, 4, 8, true, true); v != answerPartial || recall != 0 {
		t.Errorf("missing only a lost event: verdict %v recall %v, want partial 0", v, recall)
	}
}

// TestOverreportShowsInShareOnly checks the one verdict that is kept
// out of the result line: an answer under injected faults that claimed
// completeness falsely is counted in failed_ops_share and nowhere in
// the run's failed operations.
func TestOverreportShowsInShareOnly(t *testing.T) {
	r := newRun(1, 1, 1, nil)
	r.attempt(4)
	r.overreport("planted")
	if r.failed != 0 {
		t.Errorf("%d operations counted as failed, want 0", r.failed)
	}
	if got := failedOpsShare(r); got != 0.25 {
		t.Errorf("failed_ops_share %v, want 0.25", got)
	}
}
