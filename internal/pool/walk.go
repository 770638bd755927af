package pool

import (
	"fmt"
	"strings"

	"pooldcs/internal/dcs"
	"pooldcs/internal/network"
	"pooldcs/internal/trace"
)

// visitor is what one operation does at the nodes of the §3.2.3 forwarding
// tree; walk supplies the tree. QueryWithReport, Aggregate and Subscribe
// each fill one in.
type visitor struct {
	// kind is the kind of the frames that carry the operation down the
	// tree; traced says which trace records its walk emits.
	kind   network.Kind
	traced tracing
	// cell runs at a reached cell — on its index node, or on its mirror
	// when the retry was served there — and returns how many items the
	// cell has for the splitter and the size of the frame that takes them
	// there; a silent cell sends 0 bytes, that is nothing. What it appends
	// to replyBuf is dropped again if that frame is lost. A partial cell
	// sends its items but is reported unreached. A degradable error leaves
	// the cell unreached; any other ends the walk.
	cell func(key Key, node int, mirror bool) (n, bytes int, partial bool, err error)
	// sink runs at a splitter whose cells sent it n items in all and sizes
	// its frame to the sink, again 0 for none.
	sink func(n int) int
}

// tracing says which trace records an operation's walk emits.
type tracing uint8

const (
	traceNone   tracing = iota
	traceFanout         // one fan-out record per Pool
	traceFull           // a fan-out span per Pool, with resolve and reply records
)

// servedCell is one reached cell of a fan-out and how many items the
// splitter holds for it, so a lost aggregate reply can demote it.
type servedCell struct {
	cell    CellID
	matches int
}

// walk carries the operation v over the forwarding tree of the plan in
// s.plan: from the sink to one splitter per relevant Pool, on to that
// Pool's relevant cells, and back along the same edges. Every exchange is
// under the failure policy of dcs.Exchange, aimed again by
// Directory.Retarget; a cell that stays unreachable, or whose answer is
// lost, is recorded in comp and skipped. In a fault-free run the traffic
// is, hop for hop, what the paper's protocol sends.
func (s *System) walk(sink int, v visitor, comp *dcs.Completeness) error {
	if !s.tracer.Enabled() {
		v.traced = traceNone
	}
	s.replyBuf = s.replyBuf[:0]
	for _, f := range s.plan.Fanouts {
		if err := s.walkPool(f, sink, v, comp); err != nil {
			return err
		}
	}
	return nil
}

// walkPool is one Pool's share of walk. Under traceFull the whole exchange
// runs inside a fan-out sub-span of the operation's span.
func (s *System) walkPool(f Fanout, sink int, v visitor, comp *dcs.Completeness) error {
	traced := v.traced
	dim, qBytes := f.Pool.Dim, dcs.QueryBytes(s.dims)
	comp.CellsTotal += len(f.Cells)
	splitter := s.SplitterFor(f.Pool, sink)
	if traced != traceNone {
		label := fmt.Sprintf("P%d", dim)
		if traced == traceFull {
			s.tracer.Begin(trace.OpFanout, splitter, label)
			defer s.tracer.End()
		}
		s.tracer.Record(trace.TypeFanout, splitter, len(f.Cells), label)
	}
	stage, key := StageSplitter, Key{Dim: dim}
	retarget := func(lost int) int {
		to, _ := s.Retarget(stage, key, sink, lost)
		return to
	}
	unreached := func(c CellID) { comp.Unreached = append(comp.Unreached, CellLabel(dim, c)) }

	splitter, err := s.exchange(sink, splitter, v.kind, qBytes, s.arq, comp, retarget)
	if err != nil {
		return fmt.Errorf("pool: to the P%d splitter: %w", dim, err)
	}
	if splitter < 0 {
		for _, c := range f.Cells {
			unreached(c)
		}
		return nil
	}
	s.splitterLegs[splitter]++
	stage = StageCell
	poolMark, gathered := len(s.replyBuf), 0
	served := s.servedBuf[:0]
	for _, c := range f.Cells {
		key.Cell = c
		index := s.IndexNode(c)
		node, err := s.exchange(splitter, index, v.kind, qBytes, s.legs, comp, retarget)
		if err != nil {
			return fmt.Errorf("pool: to cell %v: %w", c, err)
		}
		if node < 0 {
			unreached(c)
			continue
		}
		mark := len(s.replyBuf)
		n, bytes, partial, err := v.cell(key, node, node != index)
		if err == nil {
			if traced == traceFull {
				s.tracer.Record(trace.TypeResolve, node, n, c.String())
			}
			if bytes > 0 {
				node, err = s.exchange(node, splitter, network.KindReply, bytes, s.legs, comp, nil)
			}
		}
		if err != nil && !dcs.IsDegradable(err) {
			return fmt.Errorf("pool: at cell %v: %w", c, err)
		}
		if err != nil || node < 0 {
			// The cell could not finish its part, or its answer never
			// reached the splitter.
			s.replyBuf = s.replyBuf[:mark]
			unreached(c)
			continue
		}
		gathered += n
		if partial {
			unreached(c)
			continue
		}
		served = append(served, servedCell{cell: c, matches: n})
	}
	s.servedBuf = served
	if bytes := v.sink(gathered); bytes > 0 {
		if traced == traceFull {
			s.tracer.Record(trace.TypeReply, splitter, gathered, "")
		}
		landed, err := s.exchange(splitter, sink, network.KindReply, bytes, s.arq, comp, nil)
		if err != nil {
			return fmt.Errorf("pool: P%d reply to sink: %w", dim, err)
		}
		if landed < 0 {
			s.replyBuf = s.replyBuf[:poolMark]
			for _, sc := range served {
				Demote(comp, dim, sc.cell, sc.matches)
			}
			return nil
		}
	}
	comp.CellsReached += len(served)
	return nil
}

// incomplete turns a walk that left cells unreached into the error of an
// operation that, unlike a query, must not pass a partial outcome for a
// whole one.
func incomplete(op string, comp dcs.Completeness) error {
	if comp.Complete() {
		return nil
	}
	return fmt.Errorf("pool: %s reached %d of %d cells, not %s: %w", op,
		comp.CellsReached, comp.CellsTotal, strings.Join(comp.Unreached, ", "), dcs.ErrUnreachable)
}

// eventsBytes sizes a frame of n events; none are not sent.
func (s *System) eventsBytes(n int) int {
	if n == 0 {
		return 0
	}
	return dcs.ReplyBytes(s.dims, n)
}
