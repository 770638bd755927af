package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestRecordLayout pins the two properties the flight recorder's memory
// and collector cost rest on: a stored record is at most 64 bytes, and
// nothing in it is, or contains, a pointer.
func TestRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size > 64 {
		t.Errorf("Record is %d bytes, want at most 64", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Ptr, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the stored record must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Record", reflect.TypeOf(Record{}))
}

// scripter drives a tracer through every recording method, one call a
// step, chosen by rnd; two scripters on the same seed make the same calls.
type scripter struct {
	tr    *Tracer
	clock *fakeClock
	rnd   *rand.Rand
	open  []uint64
}

func newScripter(seed int64, mk func(Clock) *Tracer) *scripter {
	clock := &fakeClock{}
	return &scripter{tr: mk(clock), clock: clock, rnd: rand.New(rand.NewSource(seed))}
}

func (s *scripter) step() {
	ops := []Op{OpInsert, OpQuery, OpFanout, OpRetry, OpFail}
	kinds := []string{"insert", "query", "reply", "control"}
	details := []string{"", "", "P1", "C(2,3)", "crash", "done", "zone 0110"}
	tr, rnd := s.tr, s.rnd
	s.clock.t += time.Duration(rnd.Intn(3)) * time.Millisecond
	switch rnd.Intn(9) {
	case 0:
		tr.Begin(ops[rnd.Intn(len(ops))], rnd.Intn(900), details[rnd.Intn(len(details))])
	case 1:
		tr.End()
	case 2:
		s.open = append(s.open, tr.BeginAt(tr.CurrentSpan(), ops[rnd.Intn(len(ops))], rnd.Intn(900), details[rnd.Intn(len(details))]))
	case 3:
		if len(s.open) > 0 {
			tr.EndSpan(s.open[len(s.open)-1])
			s.open = s.open[:len(s.open)-1]
		}
	case 4, 5:
		tr.Hop(rnd.Intn(900), rnd.Intn(900), kinds[rnd.Intn(len(kinds))], rnd.Intn(200), 1+rnd.Intn(3), rnd.Intn(4) == 0)
	case 6:
		tr.Broadcast(rnd.Intn(900), "control", 8, 1, rnd.Intn(12), rnd.Intn(3))
	case 7:
		tr.Record(TypeWait+Type(rnd.Intn(3)), rnd.Intn(900), rnd.Intn(9), details[rnd.Intn(len(details))])
	case 8:
		tr.RecordAt(s.clock.t+time.Duration(rnd.Intn(5))*time.Millisecond, TypeServe, rnd.Intn(900), 0, "")
	}
}

// TestRingViewMatchesUnboundedTail is the ring's contract as a property:
// whatever its capacity — below a chunk, a whole number of chunks, chunks
// and a bit — and wherever the run stands — before the ring fills, exactly
// full, one past, wrapped several times — the view holds, event for event,
// the tail of what an unbounded tracer fed the same calls holds, and Len
// and Dropped account for the rest.
func TestRingViewMatchesUnboundedTail(t *testing.T) {
	for _, capacity := range []int{1, 5, ringChunk - 1, ringChunk, ringChunk + 1, 2 * ringChunk, 2*ringChunk + 5} {
		all := newScripter(int64(capacity), New)
		ring := newScripter(int64(capacity), func(c Clock) *Tracer { return NewRing(c, capacity) })
		for _, upTo := range []int{0, capacity / 2, capacity, capacity + 1, 2*capacity + 3, 3*capacity + ringChunk} {
			for all.tr.Len() < upTo {
				all.step()
				ring.step()
			}
			want := all.tr.Events().Slice()
			kept := min(len(want), capacity)
			if ring.tr.Len() != kept || ring.tr.Dropped() != uint64(len(want)-kept) {
				t.Fatalf("capacity %d after %d events: Len %d Dropped %d, want %d and %d",
					capacity, len(want), ring.tr.Len(), ring.tr.Dropped(), kept, len(want)-kept)
			}
			view := ring.tr.Events()
			if view.Len() != kept {
				t.Fatalf("capacity %d after %d events: view Len %d, want %d", capacity, len(want), view.Len(), kept)
			}
			tail := want[len(want)-kept:]
			for i := range tail {
				if got := view.Unpack(view.At(i)); got != tail[i] {
					t.Fatalf("capacity %d after %d events: view[%d] = %+v, want %+v", capacity, len(want), i, got, tail[i])
				}
			}
			if got := view.Slice(); len(got) != kept || (kept > 0 && got[kept-1] != tail[kept-1]) {
				t.Fatalf("capacity %d after %d events: Slice differs from the view", capacity, len(want))
			}
		}
	}
}

// TestRecordingAllocatesNothing pins the recorder's steady state: a full
// ring overwrites its slots in place, and reading it copies nothing.
func TestRecordingAllocatesNothing(t *testing.T) {
	tr := NewRing(nil, 64)
	for tr.Dropped() == 0 {
		tr.Hop(1, 2, "query", 16, 1, false)
	}
	for name, fn := range map[string]func(){
		"Hop":      func() { tr.Hop(1, 2, "query", 16, 1, false) },
		"Record":   func() { tr.Record(TypeWait, 2, 3, "") },
		"RecordAt": func() { tr.RecordAt(time.Millisecond, TypeServe, 2, 0, "") },
		"Events":   func() { _ = tr.Events().Len() },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s on a full ring: %v allocs per call, want 0", name, allocs)
		}
	}
}

// TestOutOfRangeValuesAreClampedAndCounted: node ids, counts, bytes and
// frames are stored in 32 bits and Op and Kind ids in a byte. A value
// that does not fit is clamped — to the nearest bound, or to the empty
// string — and the log says how many were.
func TestOutOfRangeValuesAreClampedAndCounted(t *testing.T) {
	if unsafe.Sizeof(int(0)) < 8 {
		t.Skip("int is 32 bits: every int fits the stored record")
	}
	tr := New(nil)
	tr.Hop(1, 2, "query", 16, 1, false)
	if c := tr.Events().Clamped(); c != 0 {
		t.Fatalf("in-range hop counted %d clamped values", c)
	}
	big := math.MaxInt32 + 1
	tr.Hop(big, -big-1, "query", big, 1, false)
	tr.Record(TypeResolve, 3, -big-2, "")
	log := tr.Events()
	if c := log.Clamped(); c != 4 {
		t.Errorf("Clamped = %d, want 4", c)
	}
	hop, rec := log.Unpack(log.At(1)), log.Unpack(log.At(2))
	if hop.From != math.MaxInt32 || hop.To != math.MinInt32 || hop.Bytes != math.MaxInt32 || hop.Frames != 1 {
		t.Errorf("clamped hop = %+v", hop)
	}
	if rec.N != math.MinInt32 || rec.Node != 3 {
		t.Errorf("clamped record = %+v", rec)
	}

	// The 256th distinct kind has no byte id left.
	for i := 0; i < maxByteIDs+3; i++ {
		tr.Hop(0, 1, string(rune('A'+i/26))+string(rune('a'+i%26)), 1, 1, false)
	}
	log = tr.Events()
	// "query" and 254 more kinds got ids; the rest read as "".
	if c := log.Clamped(); c != 4+(maxByteIDs+3)-(maxByteIDs-2) {
		t.Errorf("Clamped after kind overflow = %d", c)
	}
	if last := log.Unpack(log.At(log.Len() - 1)); last.Kind != "" {
		t.Errorf("overflowed kind reads %q, want the empty string", last.Kind)
	}
	if LogOf([]Event{{From: big}}).Clamped() != 1 {
		t.Error("LogOf did not count a clamped literal")
	}
	tr.Reset()
	if tr.Events().Clamped() != 0 {
		t.Error("Reset kept the clamped count")
	}
}

// TestResetEmptiesStringTable: details interned before a Reset must not
// survive it, or a long-lived recorder's table would grow with every run.
func TestResetEmptiesStringTable(t *testing.T) {
	tr := NewRing(nil, 8)
	tr.Record(TypePlace, 1, 0, "C(1,1)")
	if _, ok := tr.Events().DetailID("C(1,1)"); !ok {
		t.Fatal("recorded detail not in the table")
	}
	tr.Reset()
	if _, ok := tr.Events().DetailID("C(1,1)"); ok {
		t.Error("detail survived Reset")
	}
	tr.Record(TypePlace, 1, 0, "C(2,2)")
	if got := tr.Events().Slice()[0].Detail; got != "C(2,2)" {
		t.Errorf("detail after Reset = %q", got)
	}
	if id, ok := (Log{}).DetailID(""); !ok || id != 0 {
		t.Error("the empty detail is id 0 in every log, the zero Log included")
	}
	if _, ok := (Log{}).DetailID("x"); ok {
		t.Error("zero Log claims to hold a detail")
	}
}

// fuzzLogEvents decodes bytes into events whose every field is in the
// stored record's range, strings from a vocabulary indexed by the data.
func fuzzLogEvents(data []byte) []Event {
	words := []string{"", "query", "insert", "reply", "retry", "C(1,2)", "crash", "zone 01", "é\n\"", "P3"}
	word := func(b byte) string { return words[int(b)%len(words)] }
	var events []Event
	for ; len(data) >= 12; data = data[12:] {
		i32 := func(b0, b1 byte) int { return int(int32(uint32(b0)<<24|uint32(b1)<<8)) >> (b1 % 24) }
		events = append(events, Event{
			T:      time.Duration(int64(int8(data[0]))<<uint(data[1]%56)) + time.Duration(data[1]),
			Span:   uint64(data[2]) << (data[3] % 57),
			Parent: uint64(data[3]) << (data[2] % 57),
			Type:   TypeSpanStart + Type(data[4]%13),
			Op:     Op(word(data[5])),
			Kind:   word(data[5] >> 4),
			Detail: word(data[6]),
			From:   i32(data[7], data[8]),
			To:     i32(data[8], data[7]),
			Node:   i32(data[9], data[6]),
			N:      i32(data[10], data[9]),
			Bytes:  i32(data[11], data[10]),
			Frames: i32(data[6], data[11]),
			NLost:  i32(data[4], data[0]),
			Lost:   data[11]&1 == 1,
		})
	}
	return events
}

// FuzzLogRoundTrip: packing literal events into a Log and unpacking them
// is the identity on every field in range, and the JSONL writer and
// reader round-trip through the view.
func FuzzLogRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789ab"))
	f.Add(bytes.Repeat([]byte{0xff, 0x80, 0x01, 0x7f, 0x03, 0x55, 0x06, 0x81, 0x90, 0xa0, 0xb0, 0xc1}, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		events := fuzzLogEvents(data)
		log := LogOf(events)
		if log.Len() != len(events) || log.Clamped() != 0 {
			t.Fatalf("LogOf: Len %d Clamped %d for %d in-range events", log.Len(), log.Clamped(), len(events))
		}
		got := log.Slice()
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("event %d: unpacked %+v, packed %+v", i, got[i], events[i])
			}
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, log); err != nil {
			t.Fatal(err)
		}
		read, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(read) != len(events) {
			t.Fatalf("JSONL round trip: %d events, want %d", len(read), len(events))
		}
		for i := range events {
			if read[i] != events[i] {
				t.Fatalf("JSONL event %d: read %+v, wrote %+v", i, read[i], events[i])
			}
		}
	})
}
