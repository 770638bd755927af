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
// matching q, over the same forwarding tree as Query but with
// constant-size partial-aggregate replies. For AggCount, dim is ignored.
// A cell left unreached is an error: a partial aggregate is never
// returned as the whole one.
func (s *System) Aggregate(sink int, q event.Query, op AggOp, dim int) (float64, error) {
	if op < AggCount || op > AggMax {
		return 0, fmt.Errorf("pool: unknown aggregate %v", op)
	}
	if op != AggCount && (dim < 1 || dim > s.dims) {
		return 0, fmt.Errorf("pool: aggregate dimension %d out of range 1..%d", dim, s.dims)
	}
	if err := s.Resolve(q, &s.plan); err != nil {
		return 0, err
	}
	// Folding happens on the way up (§3.2.3): a cell with matches answers
	// with one constant-size partial and drops the matches, a splitter
	// that was sent any merges them into one partial for the sink. It is
	// done as if every frame arrives — the total is discarded when one
	// did not.
	pool, total := newPartial(), newPartial()
	var comp dcs.Completeness
	err := s.walk(sink, visitor{
		kind: network.KindQuery,
		cell: func(key Key, node int, mirror bool) (int, int, bool, error) {
			mark := len(s.replyBuf)
			n, partial := s.gather(key, node, mirror)
			if n == 0 {
				return 0, 0, partial, nil
			}
			cell := newPartial()
			for _, e := range s.replyBuf[mark:] {
				if op == AggCount {
					cell.add(0)
				} else {
					cell.add(e.Values[dim-1])
				}
			}
			s.replyBuf = s.replyBuf[:mark]
			pool.merge(cell)
			return cell.count, aggPartialBytes, partial, nil
		},
		sink: func(n int) int {
			if n == 0 {
				return 0
			}
			total.merge(pool)
			pool = newPartial()
			return aggPartialBytes
		},
	}, &comp)
	if err == nil {
		err = incomplete("aggregate", comp)
	}
	if err != nil {
		return 0, err
	}
	return total.result(op)
}
