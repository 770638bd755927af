// Package wire defines a byte-level encoding of events and queries: the
// snapshot format pool.Dump writes and pool.Load reads. It is independent
// of the cost model, which charges the payload sizes of dcs.EventBytes,
// dcs.QueryBytes and dcs.ReplyBytes — EventSize(k) here is 10+8k bytes
// where dcs.EventBytes(k) is 16+8k.
//
// All encodings are little-endian and fixed-layout:
//
//	Event: seq u64 | k u16 | k × f64
//	Query: k u16 | flags u16 (bit i set = attribute i wild) | k × (f64, f64)
//
// Wild query attributes are encoded as [0, 1] so decoding needs no
// special cases; the flag bit restores the wildcard.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pooldcs/internal/event"
)

// MaxDims bounds the encodable dimensionality (the query wildcard flags
// are a 16-bit set).
const MaxDims = 16

// EventSize returns the encoded size of a k-dimensional event.
func EventSize(k int) int { return 8 + 2 + 8*k }

// QuerySize returns the encoded size of a k-dimensional query.
func QuerySize(k int) int { return 2 + 2 + 16*k }

// ErrTruncated reports a buffer shorter than its header promises.
var ErrTruncated = errors.New("wire: truncated buffer")

// AppendEvent appends the encoding of e to dst and returns the extended
// slice.
func AppendEvent(dst []byte, e event.Event) ([]byte, error) {
	k := len(e.Values)
	if k == 0 || k > MaxDims {
		return dst, fmt.Errorf("wire: event dimensionality %d outside 1..%d", k, MaxDims)
	}
	dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(k))
	for _, v := range e.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// DecodeEvent decodes one event from the front of buf, returning the
// event and the remaining bytes.
func DecodeEvent(buf []byte) (event.Event, []byte, error) {
	if len(buf) < 10 {
		return event.Event{}, buf, ErrTruncated
	}
	seq := binary.LittleEndian.Uint64(buf)
	k := int(binary.LittleEndian.Uint16(buf[8:]))
	if k == 0 || k > MaxDims {
		return event.Event{}, buf, fmt.Errorf("wire: event dimensionality %d outside 1..%d", k, MaxDims)
	}
	need := EventSize(k)
	if len(buf) < need {
		return event.Event{}, buf, ErrTruncated
	}
	values := make([]float64, k)
	for i := range values {
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[10+8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return event.Event{}, buf, fmt.Errorf("wire: event value %d is not finite", i+1)
		}
		values[i] = v
	}
	return event.Event{Seq: seq, Values: values}, buf[need:], nil
}

// AppendQuery appends the encoding of q to dst and returns the extended
// slice.
func AppendQuery(dst []byte, q event.Query) ([]byte, error) {
	k := len(q.Ranges)
	if k == 0 || k > MaxDims {
		return dst, fmt.Errorf("wire: query dimensionality %d outside 1..%d", k, MaxDims)
	}
	var flags uint16
	for i, r := range q.Ranges {
		if r.Wild {
			flags |= 1 << uint(i)
		}
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(k))
	dst = binary.LittleEndian.AppendUint16(dst, flags)
	for _, r := range q.Ranges {
		lo, hi := r.L, r.U
		if r.Wild {
			lo, hi = 0, 1
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(lo))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(hi))
	}
	return dst, nil
}

// DecodeQuery decodes one query from the front of buf, returning the
// query and the remaining bytes.
func DecodeQuery(buf []byte) (event.Query, []byte, error) {
	if len(buf) < 4 {
		return event.Query{}, buf, ErrTruncated
	}
	k := int(binary.LittleEndian.Uint16(buf))
	flags := binary.LittleEndian.Uint16(buf[2:])
	if k == 0 || k > MaxDims {
		return event.Query{}, buf, fmt.Errorf("wire: query dimensionality %d outside 1..%d", k, MaxDims)
	}
	need := QuerySize(k)
	if len(buf) < need {
		return event.Query{}, buf, ErrTruncated
	}
	ranges := make([]event.Range, k)
	for i := range ranges {
		off := 4 + 16*i
		lo := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return event.Query{}, buf, fmt.Errorf("wire: query range %d is not finite", i+1)
		}
		if flags&(1<<uint(i)) != 0 {
			ranges[i] = event.Unspecified()
		} else {
			ranges[i] = event.Range{L: lo, U: hi}
		}
	}
	return event.Query{Ranges: ranges}, buf[need:], nil
}

// AppendEvents encodes a batch: count u16 followed by the events. Batches
// are what reply messages carry.
func AppendEvents(dst []byte, events []event.Event) ([]byte, error) {
	if len(events) > math.MaxUint16 {
		return dst, fmt.Errorf("wire: batch of %d events exceeds u16 count", len(events))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(events)))
	for _, e := range events {
		var err error
		if dst, err = AppendEvent(dst, e); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// DecodeEvents decodes a batch encoded by AppendEvents.
func DecodeEvents(buf []byte) ([]event.Event, []byte, error) {
	if len(buf) < 2 {
		return nil, buf, ErrTruncated
	}
	count := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	events := make([]event.Event, 0, count)
	for i := 0; i < count; i++ {
		var (
			e   event.Event
			err error
		)
		if e, buf, err = DecodeEvent(buf); err != nil {
			return nil, buf, fmt.Errorf("wire: batch item %d: %w", i, err)
		}
		events = append(events, e)
	}
	return events, buf, nil
}
