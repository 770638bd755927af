package node

import "time"

// EnableService switches the engine into service mode: every delivered
// packet occupies its destination node for perPacket of virtual time,
// and each node processes packets serially in arrival order. Without
// service mode (the default) nodes have infinite processing capacity and
// per-hop latency is the only delay — correct for the paper's
// message-count experiments, blind to saturation. With it, a node
// offered packets faster than 1/perPacket queues them, which is what the
// sustained-load harness measures.
//
// Disable by passing 0. Result sets are identical either way; only
// timing changes.
func (e *Engine) EnableService(perPacket time.Duration) {
	e.svcTime = perPacket
	if perPacket > 0 && e.svcBusy == nil {
		e.svcBusy = make([]time.Duration, e.layout.N())
		e.svcDepth = make([]int, e.layout.N())
	}
}

// QueueDepth returns the number of packets queued or in service at a
// node (always 0 outside service mode). Admission controllers consult
// this for shedding decisions.
func (e *Engine) QueueDepth(node int) int {
	if e.svcDepth == nil {
		return 0
	}
	return e.svcDepth[node]
}

// MaxQueueDepth returns the deepest per-node service queue observed.
func (e *Engine) MaxQueueDepth() int { return e.svcMaxDepth }
