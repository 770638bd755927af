package pool

import (
	"fmt"
	"slices"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/network"
	"pooldcs/internal/trace"
)

// Subscription is a standing (continuous) query: after registration,
// every newly inserted event matching the query is pushed from its index
// node to the subscriber, without polling. Continuous monitoring is the
// §6 extension the paper announces as ongoing work; it composes naturally
// with Pool because Theorem 3.2 pins the exact cells any future matching
// event can land in, so registrations touch only those index nodes.
type Subscription struct {
	// ID is unique per system.
	ID uint64
	// Sink is the subscribing node.
	Sink int
	// Query is the standing predicate (stored rewritten).
	Query event.Query

	keys []Key
}

// Subscribe registers a continuous query issued by sink. Registration
// traffic follows the same forwarding tree as a one-shot query; matching
// events already stored are NOT reported (use Query for the history). When
// cells stay unreachable the subscription is returned together with an
// error naming them: it stands at the cells that were reached, for the
// caller to keep or to Unsubscribe.
func (s *System) Subscribe(sink int, q event.Query) (*Subscription, error) {
	if err := s.Resolve(q, &s.plan); err != nil {
		return nil, err
	}
	s.subSeq++
	// The plan's ranges are overwritten by the next Resolve.
	rq := event.Query{Ranges: slices.Clone(s.plan.Query.Ranges)}
	sub := &Subscription{ID: s.subSeq, Sink: sink, Query: rq}
	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpSubscribe, sink, "")
		defer s.tracer.End()
	}
	// Registration rides control frames and is answered by nobody.
	var comp dcs.Completeness
	err := s.walk(sink, visitor{
		kind: network.KindControl, traced: traceFanout,
		cell: func(key Key, _ int, _ bool) (int, int, bool, error) {
			sub.keys = append(sub.keys, key)
			i := s.slot(key)
			s.subs[i] = append(s.subs[i], sub)
			return 0, 0, false, nil
		},
		sink: func(int) int { return 0 },
	}, &comp)
	if err != nil {
		return nil, err
	}
	return sub, incomplete("subscribe", comp)
}

// Unsubscribe removes a standing query. Deregistration traffic follows
// the same paths as registration.
func (s *System) Unsubscribe(sub *Subscription) error {
	if sub == nil {
		return fmt.Errorf("pool: nil subscription")
	}
	qBytes := dcs.QueryBytes(s.dims)
	if s.tracer.Enabled() {
		s.tracer.Begin(trace.OpUnsubscribe, sub.Sink, "")
		defer s.tracer.End()
	}
	removedAny := false
	for _, key := range sub.keys {
		slot := s.slot(key)
		list := s.subs[slot]
		for i, registered := range list {
			if registered.ID != sub.ID {
				continue
			}
			s.subs[slot] = append(list[:i], list[i+1:]...)
			removedAny = true
			// One control message from the sink's side of the tree; we
			// charge sink→index directly (the tree edges coincide).
			if _, err := s.unicast(sub.Sink, s.IndexNode(key.Cell), network.KindControl, qBytes); err != nil {
				return fmt.Errorf("pool: unsubscribe cell %v: %w", key.Cell, err)
			}
			break
		}
	}
	if !removedAny {
		return fmt.Errorf("pool: subscription %d not registered", sub.ID)
	}
	sub.keys = nil
	return nil
}

// Notification is one pushed match of a continuous query.
type Notification struct {
	SubscriptionID uint64
	Sink           int
	Event          event.Event
}

// Notifications returns the pushed matches accumulated so far and clears
// the buffer. In a deployed system these would arrive at the sinks
// asynchronously; the simulator buffers them for inspection.
func (s *System) Notifications() []Notification {
	out := s.pending
	s.pending = nil
	return out
}

// notifySubscribers pushes a freshly stored event to every standing query
// registered at its cell. Called from storeEvent with the index node that
// received the event.
func (s *System) notifySubscribers(key Key, index int, e event.Event) error {
	for _, sub := range s.subs[s.slot(key)] {
		if !sub.Query.Matches(e) {
			continue
		}
		if s.tracer.Enabled() {
			s.tracer.Record(trace.TypeNotify, sub.Sink, 1, "")
		}
		if _, err := s.unicast(index, sub.Sink, network.KindReply,
			dcs.ReplyBytes(s.dims, 1)); err != nil {
			return fmt.Errorf("pool: notify sink %d: %w", sub.Sink, err)
		}
		s.pending = append(s.pending, Notification{SubscriptionID: sub.ID, Sink: sub.Sink, Event: e})
	}
	return nil
}
