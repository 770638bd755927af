package load

import (
	"time"

	"pooldcs/internal/event"
	"pooldcs/internal/node"
)

// DefaultPerPacket is the actor engine's per-packet processing time in
// service mode: the same order of magnitude as the station model's
// per-message cost, so the two backends saturate comparably.
const DefaultPerPacket = 2 * time.Millisecond

// ActorTarget drives the Pool protocol through the internal/node actor
// engine instead of the station model: operations become real
// hop-by-hop message exchanges on the virtual clock, and queueing
// emerges from per-node serial packet processing (Engine.EnableService)
// rather than from a modelled entry station. Admission decisions consult
// the service queue of the query's first splitter.
type ActorTarget struct {
	eng *node.Engine
}

// NewActorTarget wraps eng, enabling service mode with DefaultPerPacket
// processing time.
func NewActorTarget(eng *node.Engine) *ActorTarget {
	eng.EnableService(DefaultPerPacket)
	return &ActorTarget{eng: eng}
}

// Name implements Target.
func (t *ActorTarget) Name() string { return "pool-actor" }

// Supports implements Target.
func (t *ActorTarget) Supports(c Class) bool { return true }

// Station implements Target: the first splitter that would serve the
// query. Inserts are not admission-controlled, so their station is
// nominal.
func (t *ActorTarget) Station(op *Op) int {
	if op.Class == Insert {
		return op.Node
	}
	if sps := t.eng.SplittersFor(op.Node, op.Query); len(sps) > 0 {
		return sps[0]
	}
	return op.Node
}

// Depth implements Target.
func (t *ActorTarget) Depth(station int) int { return t.eng.QueueDepth(station) }

// Launch implements Target.
func (t *ActorTarget) Launch(op *Op, station int, done func()) error {
	if op.Class == Insert {
		return t.eng.Insert(op.Node, op.Event, done)
	}
	return t.eng.Query(op.Node, op.Query, func(results []event.Event, elapsed time.Duration) { done() })
}

// MaxDepth implements Target.
func (t *ActorTarget) MaxDepth() int { return t.eng.MaxQueueDepth() }
