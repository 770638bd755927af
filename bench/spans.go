package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one recorded call from the bench into a layer's public
// function. Spans are kept in memory and written once at exit.
type span struct {
	parent     int32 // index of the enclosing span, -1 for a root
	op         int32 // request identifier shared by the spans of one operation
	kind       uint16
	start, end int64 // ns since the recorder was created
}

// spanKind names what a span measured: the layer (module name) and
// the call.
type spanKind struct{ layer, name string }

// spans is the bench's own in-memory trace. A nil *spans records
// nothing, which is the untraced run.
type spans struct {
	t0    time.Time
	kinds []spanKind
	index map[spanKind]uint16
	list  []span
	stack []int32
}

func newSpans() *spans {
	return &spans{t0: time.Now(), index: make(map[spanKind]uint16)}
}

// kind interns a (layer, name) pair; hot loops resolve it once.
func (s *spans) kind(layer, name string) uint16 {
	if s == nil {
		return 0
	}
	k := spanKind{layer, name}
	id, ok := s.index[k]
	if !ok {
		id = uint16(len(s.kinds))
		s.kinds = append(s.kinds, k)
		s.index[k] = id
	}
	return id
}

// begin opens a span under the innermost open one.
func (s *spans) begin(kind uint16, op int) int32 {
	if s == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := int32(len(s.list))
	s.list = append(s.list, span{parent: parent, op: int32(op), kind: kind})
	s.stack = append(s.stack, id)
	s.list[id].start = int64(time.Since(s.t0))
	return id
}

// end closes the innermost span, which must be id.
func (s *spans) end(id int32) {
	if s == nil {
		return
	}
	s.list[id].end = int64(time.Since(s.t0))
	s.stack = s.stack[:len(s.stack)-1]
}

// in runs f inside a span; for set-up code where a closure is no cost.
func (s *spans) in(layer, name string, op int, f func()) {
	id := s.begin(s.kind(layer, name), op)
	f()
	s.end(id)
}

// durations returns the length in ns of every span of one kind.
func (s *spans) durations(layer, name string) []float64 {
	if s == nil {
		return nil
	}
	k, ok := s.index[spanKind{layer, name}]
	if !ok {
		return nil
	}
	var out []float64
	for _, sp := range s.list {
		if sp.kind == k {
			out = append(out, float64(sp.end-sp.start))
		}
	}
	return out
}

// total sums the spans of one kind, in ns.
func (s *spans) total(layer, name string) float64 {
	t := 0.0
	for _, d := range s.durations(layer, name) {
		t += d
	}
	return t
}

// selfRow is one line of the self-time table.
type selfRow struct {
	layer, name string
	count       int
	totalNs     int64
	selfNs      int64
}

// selfTimes returns, per span kind, the time its spans cover minus
// the time their child spans cover.
func (s *spans) selfTimes() []selfRow {
	if s == nil {
		return nil
	}
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	rows := make([]selfRow, len(s.kinds))
	for i, k := range s.kinds {
		rows[i] = selfRow{layer: k.layer, name: k.name}
	}
	for i, sp := range s.list {
		r := &rows[sp.kind]
		r.count++
		r.totalNs += sp.end - sp.start
		r.selfNs += sp.end - sp.start - child[i]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].selfNs > rows[j].selfNs })
	return rows
}

// writeSelfTable prints the self-time table.
func (s *spans) writeSelfTable(w io.Writer) {
	rows := s.selfTimes()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-12s %-28s %10s %12s %12s\n", "layer", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-28s %10d %12.3f %12.3f\n", r.layer, r.name, r.count,
			float64(r.totalNs)/1e6, float64(r.selfNs)/1e6)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each layer is one thread row.
func (s *spans) writeChrome(w io.Writer) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	tids := make(map[string]int)
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, sp := range s.list {
		k := s.kinds[sp.kind]
		tid, ok := tids[k.layer]
		if !ok {
			tid = len(tids) + 1
			tids[k.layer] = tid
		}
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if err := enc.Encode(ev{Name: k.name, Cat: k.layer, Ph: "X",
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]int{"id": i, "parent": int(sp.parent), "op": int(sp.op)}}); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
