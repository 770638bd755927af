package pool

import (
	"fmt"
	"io"
	"sort"

	"pooldcs/internal/event"
	"pooldcs/internal/wire"
)

// Dump serializes every stored event to w using the wire batch encoding,
// in deterministic (Pool, cell, segment) order, and returns the event
// count. A dump taken at the sink is a complete backup: storage
// coordinates are implied by Theorem 3.1, so only the events themselves
// need to travel.
func (s *System) Dump(w io.Writer) (int, error) {
	keys := make([]Key, 0, len(s.store))
	for key := range s.store {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Dim != b.Dim {
			return a.Dim < b.Dim
		}
		if a.Cell.X != b.Cell.X {
			return a.Cell.X < b.Cell.X
		}
		return a.Cell.Y < b.Cell.Y
	})
	var events []event.Event
	for _, key := range keys {
		for _, seg := range s.store[key] {
			events = append(events, seg.events...)
		}
	}
	buf, err := wire.AppendEvents(nil, events)
	if err != nil {
		return 0, fmt.Errorf("pool: dump: %w", err)
	}
	if _, err := w.Write(buf); err != nil {
		return 0, fmt.Errorf("pool: dump: %w", err)
	}
	return len(events), nil
}

// Load restores events from a Dump stream, placing each directly at its
// Theorem-3.1 cell. Load is a management operation performed before the
// network goes live: no radio traffic is charged, workload-sharing quotas
// are not consulted, subscriptions do not fire, and tied events land in
// their lowest-dimension candidate Pool. It returns the number of events
// restored.
func (s *System) Load(r io.Reader) (int, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("pool: load: %w", err)
	}
	events, rest, err := wire.DecodeEvents(buf)
	if err != nil {
		return 0, fmt.Errorf("pool: load: %w", err)
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("pool: load: %d trailing bytes", len(rest))
	}
	for i, e := range events {
		if err := s.checkEvent(e); err != nil {
			return i, fmt.Errorf("pool: load event %d: %w", i, err)
		}
		d1 := event.GreatestDims(e)[0]
		key := Key{Dim: d1, Cell: s.candidate(e, d1)}
		index := s.holder[key.Cell]
		segs := s.store[key]
		if len(segs) == 0 {
			segs = append(segs, segment{node: index})
		}
		active := &segs[len(segs)-1]
		active.events = append(active.events, e)
		s.stored[active.node]++
		s.putSegments(key, segs)
		if s.ElectMirror(key, index) >= 0 {
			s.putMirror(key, append(s.mirrorStore[key], e))
		}
	}
	return len(events), nil
}
