package trace

import (
	"math"
	"time"
)

// Record is the stored form of an Event: one fixed-width, 64-byte value
// with no pointer in it, so a ring of them is memory the garbage
// collector never scans and a chunk of them is cheap to allocate. The
// three strings of an Event are ids into the string table of the Tracer
// that stored the record; resolve them through the Log the record came
// from (Log.Op, Log.Kind, Log.Detail, or Log.Unpack for the whole Event).
// Node ids, counts, bytes and frames are 32 bits wide: a value outside
// that range is clamped to the nearest bound and counted (Log.Clamped).
type Record struct {
	T      time.Duration
	Span   uint64
	Parent uint64
	From   int32
	To     int32
	Node   int32
	N      int32
	Bytes  int32
	Frames int32
	NLost  int32
	Detail uint32
	Type   Type
	Op     uint8
	Kind   uint8
	Lost   bool
}

// maxByteIDs bounds the Op and Kind tables: their ids are stored in one
// byte, and id 0 is the empty string.
const maxByteIDs = 256

// strtab is a Tracer's string table. Ops and kinds are a handful of
// values each (seven and four at the repo's call sites), so a linear scan
// finds them faster than a hash would; details are the cell, zone and
// Pool labels of one deployment plus a dozen literals, so the table's
// size is bounded by the deployment, not by the length of the run. Id 0
// is the empty string in all three.
type strtab struct {
	ops, kinds []string
	details    []string
	detailIDs  map[string]uint32
	// clamped counts the values that did not fit their stored width:
	// integers outside 32 bits, and Op or Kind strings beyond the 255
	// distinct ones a byte id can name (stored as the empty string).
	clamped uint64
}

func newStrtab() *strtab {
	return &strtab{ops: []string{""}, kinds: []string{""}, details: []string{""}}
}

// byteID interns s in a byte-indexed table.
func (tab *strtab) byteID(list *[]string, s string) uint8 {
	for i, have := range *list {
		if have == s {
			return uint8(i)
		}
	}
	if len(*list) == maxByteIDs {
		tab.clamped++
		return 0
	}
	*list = append(*list, s)
	return uint8(len(*list) - 1)
}

func (tab *strtab) op(op Op) uint8 { return tab.byteID(&tab.ops, string(op)) }

func (tab *strtab) kind(kind string) uint8 { return tab.byteID(&tab.kinds, kind) }

// detail interns s. The empty detail, which most records carry, costs no
// lookup.
func (tab *strtab) detail(s string) uint32 {
	if s == "" {
		return 0
	}
	id, ok := tab.detailIDs[s]
	if !ok {
		if tab.detailIDs == nil {
			tab.detailIDs = make(map[string]uint32)
		}
		id = uint32(len(tab.details))
		tab.details = append(tab.details, s)
		tab.detailIDs[s] = id
	}
	return id
}

// i32 narrows v to the stored width, clamping and counting a value that
// does not fit.
func (tab *strtab) i32(v int) int32 {
	if int(int32(v)) == v {
		return int32(v)
	}
	tab.clamped++
	if v < 0 {
		return math.MinInt32
	}
	return math.MaxInt32
}

// Log is a read-only, ordered view of trace records: what Tracer.Events
// returns and what Analyze, WriteJSONL and the attrib package read. A
// Log taken from a Tracer aliases the tracer's storage and string table,
// so it is valid only until that tracer records again or is Reset; a Log
// made by LogOf owns its records. The zero Log is empty.
type Log struct {
	tab *strtab
	// chunks hold the records, ringChunk per chunk but for the last; the
	// oldest record is at slot head and the order wraps after slot n-1.
	chunks [][]Record
	head   int
	n      int
}

// LogOf packs literal events — a test's table, a fuzz corpus, what
// ReadJSONL returned — into a Log that owns its storage.
func LogOf(events []Event) Log {
	tab := newStrtab()
	recs := make([]Record, len(events))
	for i := range events {
		ev := &events[i]
		recs[i] = Record{
			T: ev.T, Span: ev.Span, Parent: ev.Parent,
			From: tab.i32(ev.From), To: tab.i32(ev.To), Node: tab.i32(ev.Node),
			N: tab.i32(ev.N), Bytes: tab.i32(ev.Bytes), Frames: tab.i32(ev.Frames),
			NLost: tab.i32(ev.NLost), Detail: tab.detail(ev.Detail),
			Type: ev.Type, Op: tab.op(ev.Op), Kind: tab.kind(ev.Kind), Lost: ev.Lost,
		}
	}
	l := Log{tab: tab, n: len(recs)}
	for ; len(recs) > ringChunk; recs = recs[ringChunk:] {
		l.chunks = append(l.chunks, recs[:ringChunk])
	}
	l.chunks = append(l.chunks, recs)
	return l
}

// Len returns the number of records in the view.
func (l Log) Len() int { return l.n }

// At returns the i-th record, oldest first. The pointer is into the
// viewed storage: read through it, never write.
func (l Log) At(i int) *Record {
	p := l.head + i
	if p >= l.n {
		p -= l.n
	}
	return &l.chunks[p/ringChunk][p%ringChunk]
}

// Op, Kind and Detail resolve the string ids of a record of this log.
func (l Log) Op(r *Record) Op         { return Op(l.tab.ops[r.Op]) }
func (l Log) Kind(r *Record) string   { return l.tab.kinds[r.Kind] }
func (l Log) Detail(r *Record) string { return l.tab.details[r.Detail] }

// DetailID returns the id s has in the log's table; ok is false when no
// record of the log can carry s. It lets a reader that looks for a few
// literals compare ids instead of strings on every record.
func (l Log) DetailID(s string) (id uint32, ok bool) {
	if s == "" {
		return 0, true
	}
	if l.tab == nil {
		return 0, false
	}
	id, ok = l.tab.detailIDs[s]
	return id, ok
}

// Clamped returns how many values did not fit the stored record when the
// log was written and were clamped (see Record).
func (l Log) Clamped() uint64 {
	if l.tab == nil {
		return 0
	}
	return l.tab.clamped
}

// Unpack returns the wire form of a record of this log.
func (l Log) Unpack(r *Record) Event {
	return Event{
		T: r.T, Span: r.Span, Type: r.Type, Op: l.Op(r), Parent: r.Parent,
		From: int(r.From), To: int(r.To), Kind: l.Kind(r),
		Bytes: int(r.Bytes), Frames: int(r.Frames), Lost: r.Lost, NLost: int(r.NLost),
		Node: int(r.Node), N: int(r.N), Detail: l.Detail(r),
	}
}

// Slice copies the view out as wire-form events, for events that must
// outlive the tracer's next record or leave the process. An empty log
// gives nil.
func (l Log) Slice() []Event {
	if l.n == 0 {
		return nil
	}
	out := make([]Event, l.n)
	for i := range out {
		out[i] = l.Unpack(l.At(i))
	}
	return out
}
