package pool

import (
	"fmt"
	"math"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/network"
)

// AggOp selects an aggregate function. §3.2.3 notes that aggregates can be
// computed at the splitters so that only constant-size partials travel the
// reply tree instead of full event lists.
type AggOp int

// Aggregate operators.
const (
	AggCount AggOp = iota + 1
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String implements fmt.Stringer.
func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggOp(%d)", int(op))
	}
}

// aggPartialBytes is the payload of a partial aggregate: count, sum, min,
// max — constant size regardless of how many events matched.
const aggPartialBytes = 16 + 4*8

// partial is a mergeable aggregate state.
type partial struct {
	count    int
	sum      float64
	min, max float64
}

func newPartial() partial {
	return partial{min: math.Inf(1), max: math.Inf(-1)}
}

func (p *partial) add(v float64) {
	p.count++
	p.sum += v
	if v < p.min {
		p.min = v
	}
	if v > p.max {
		p.max = v
	}
}

func (p *partial) merge(o partial) {
	p.count += o.count
	p.sum += o.sum
	if o.min < p.min {
		p.min = o.min
	}
	if o.max > p.max {
		p.max = o.max
	}
}

func (p partial) result(op AggOp) (float64, error) {
	switch op {
	case AggCount:
		return float64(p.count), nil
	case AggSum:
		return p.sum, nil
	case AggAvg:
		if p.count == 0 {
			return 0, fmt.Errorf("pool: AVG over empty result")
		}
		return p.sum / float64(p.count), nil
	case AggMin:
		if p.count == 0 {
			return 0, fmt.Errorf("pool: MIN over empty result")
		}
		return p.min, nil
	case AggMax:
		if p.count == 0 {
			return 0, fmt.Errorf("pool: MAX over empty result")
		}
		return p.max, nil
	default:
		return 0, fmt.Errorf("pool: unknown aggregate %v", op)
	}
}

// Aggregate evaluates op over attribute dim (1-based) of the events
// matching q, using the same splitter tree as Query but with constant-size
// partial-aggregate replies. For AggCount, dim is ignored. Each cell's
// matches are folded where queryCell left them in the reply buffer and
// dropped again; no result slice is built.
func (s *System) Aggregate(sink int, q event.Query, op AggOp, dim int) (float64, error) {
	var plan Plan
	if err := s.Resolve(q, &plan); err != nil {
		return 0, err
	}
	if op != AggCount && (dim < 1 || dim > s.dims) {
		return 0, fmt.Errorf("pool: aggregate dimension %d out of range 1..%d", dim, s.dims)
	}
	rq := plan.Query
	qBytes := dcs.QueryBytes(s.dims)

	total := newPartial()
	s.replyBuf = s.replyBuf[:0]
	for _, f := range plan.Fanouts {
		p, cells := f.Pool, f.Cells
		splitter := s.SplitterFor(p, sink)
		if _, err := s.unicast(sink, splitter, network.KindQuery, qBytes); err != nil {
			return 0, fmt.Errorf("pool: aggregate to splitter: %w", err)
		}
		poolPartial := newPartial()
		for _, c := range cells {
			index := s.holder[c]
			if index != splitter {
				if _, err := s.unicast(splitter, index, network.KindQuery, qBytes); err != nil {
					return 0, fmt.Errorf("pool: aggregate to cell %v: %w", c, err)
				}
			}
			if s.queryCell(Key{Dim: p.Dim, Cell: c}, index, rq, qBytes) == 0 {
				continue
			}
			cellPartial := newPartial()
			for _, e := range s.replyBuf {
				v := 0.0
				if op != AggCount {
					v = e.Values[dim-1]
				}
				cellPartial.add(v)
			}
			s.replyBuf = s.replyBuf[:0]
			poolPartial.merge(cellPartial)
			if index != splitter {
				if _, err := s.unicast(index, splitter, network.KindReply, aggPartialBytes); err != nil {
					return 0, fmt.Errorf("pool: aggregate reply from cell %v: %w", c, err)
				}
			}
		}
		if poolPartial.count > 0 {
			// The splitter merges its Pool's partials and sends one
			// constant-size partial to the sink.
			if _, err := s.unicast(splitter, sink, network.KindReply, aggPartialBytes); err != nil {
				return 0, fmt.Errorf("pool: aggregate reply to sink: %w", err)
			}
			total.merge(poolPartial)
		}
	}
	return total.result(op)
}
