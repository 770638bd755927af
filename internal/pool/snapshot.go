package pool

import (
	"fmt"
	"io"

	"pooldcs/internal/event"
	"pooldcs/internal/wire"
)

// Dump serializes every stored event to w using the wire batch encoding,
// in deterministic (Pool, cell, segment) order, and returns the event
// count. A dump taken at the sink is a complete backup: storage
// coordinates are implied by Theorem 3.1, so only the events themselves
// need to travel.
func (s *System) Dump(w io.Writer) (int, error) {
	var events []event.Event
	s.EachSegment(func(_ Key, _ int, held []event.Event) { events = append(events, held...) })
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
		node, _ := s.Active(key, index)
		s.Append(key, node, e)
		if s.ElectMirror(key, index) >= 0 {
			s.AppendMirror(key, e)
		}
	}
	return len(events), nil
}
