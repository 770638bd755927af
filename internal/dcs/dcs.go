// Package dcs defines the interface shared by the data-centric storage
// schemes in this repository (Pool, DIM, GHT) along with the cost-model
// helpers they have in common.
//
// A DCS system stores events detected anywhere in the network at
// deterministic rendezvous nodes and answers queries by visiting only
// those nodes. The paper's comparison metric — messages exchanged while
// inserting events and answering queries — is captured by the network
// counters; the helpers here charge routed unicasts hop by hop so every
// scheme is accounted identically.
package dcs

import (
	"errors"
	"fmt"

	"pooldcs/internal/event"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
)

// System is a data-centric storage scheme running over a sensor network:
// the one surface pool.System, dim.System, ght.System and node.Sync (the
// actor engine's synchronous face) implement and every driver uses.
type System interface {
	// Name identifies the scheme in reports.
	Name() string
	// Insert stores an event detected at node origin.
	Insert(origin int, e event.Event) error
	// Query resolves q from the sink node and returns the matching events.
	Query(sink int, q event.Query) ([]event.Event, error)
	// QueryWithReport is Query plus how much of the fan-out was served.
	QueryWithReport(sink int, q event.Query) ([]event.Event, Completeness, error)
	// StorageLoad returns the number of events stored at each node,
	// indexed by node ID.
	StorageLoad() []int
	Degradable
}

// Payload sizes in bytes for the cost model. One attribute value is eight
// bytes; headers cover sequence numbers and routing state.
const (
	headerBytes    = 16
	perValueBytes  = 8
	perRangeBytes  = 16 // lower and upper bound
	ackPayloadSize = headerBytes
)

// EventBytes returns the payload size of one k-dimensional event.
func EventBytes(k int) int { return headerBytes + k*perValueBytes }

// QueryBytes returns the payload size of a k-dimensional query.
func QueryBytes(k int) int { return headerBytes + k*perRangeBytes }

// ReplyBytes returns the payload size of a reply carrying n k-dimensional
// events. An empty reply is a bare acknowledgement.
func ReplyBytes(k, n int) int {
	if n == 0 {
		return ackPayloadSize
	}
	return headerBytes + n*k*perValueBytes
}

// DefaultMaxRetransmissions is the per-hop link-layer retry budget used
// when no TxOptions override it.
const DefaultMaxRetransmissions = 16

// ErrHopExhausted reports a hop that stayed lossy through the whole ARQ
// retry budget. Test with errors.Is.
var ErrHopExhausted = errors.New("dcs: hop retransmission budget exhausted")

// ErrUnreachable reports a destination no amount of retransmission can
// reach: the next hop (or the destination itself) is crashed or depleted,
// or the alive routing graph is partitioned. Test with errors.Is.
var ErrUnreachable = errors.New("dcs: destination unreachable")

// TxOptions tunes routed-unicast behaviour. The zero value selects the
// defaults, so existing call sites keep their semantics.
type TxOptions struct {
	// MaxRetransmissions bounds per-hop link-layer retries on lossy
	// links; 0 selects DefaultMaxRetransmissions.
	MaxRetransmissions int
	// PathBuf, when non-nil, points at a reusable backing array for the
	// route path; the (possibly grown) buffer is stored back after each
	// unicast. Route paths are then only allocated when they outgrow the
	// buffer. The buffer must not be shared across goroutines.
	PathBuf *[]int
}

func (o TxOptions) retries() int {
	if o.MaxRetransmissions > 0 {
		return o.MaxRetransmissions
	}
	return DefaultMaxRetransmissions
}

// UnicastOpts routes a payload from one node to another with GPSR,
// charging one transmission per hop to the network counters. On lossy
// links each hop retransmits until the frame gets through (ARQ) or the
// retry budget in opts runs out, so every attempt is paid for. It returns
// the number of transmissions performed. Errors wrap ErrUnreachable when a
// dead node or partition blocks the route (retrying is futile) and
// ErrHopExhausted when a hop stayed lossy through the whole ARQ budget (a
// retry at a higher layer may succeed).
func UnicastOpts(net *network.Network, router *gpsr.Router, from, to int, kind network.Kind, payloadBytes int, opts TxOptions) (int, error) {
	if from == to {
		return 0, nil
	}
	var res gpsr.Result
	var err error
	if opts.PathBuf != nil {
		res, err = router.RouteToNodeBuf(from, to, *opts.PathBuf)
		*opts.PathBuf = res.Path
	} else {
		res, err = router.RouteToNode(from, to)
	}
	if err != nil {
		if errors.Is(err, gpsr.ErrUnreachable) {
			return 0, fmt.Errorf("dcs: unicast %d→%d: %v: %w", from, to, err, ErrUnreachable)
		}
		return 0, fmt.Errorf("dcs: unicast %d→%d: %w", from, to, err)
	}
	// Only a hop whose first attempt failed goes through the ARQ retry.
	sent, path := 0, res.Path
	for i := 0; i < len(path)-1; i++ {
		delivered, err := net.TransmitPath(path[i:], kind, payloadBytes)
		sent, i = sent+delivered, i+delivered
		if err == nil {
			break
		}
		n, err := transmitARQ(net, path[i], path[i+1], kind, payloadBytes, opts, err)
		sent += n
		if err != nil {
			return sent, fmt.Errorf("dcs: unicast %d→%d at hop %d: %w", from, to, i+1, err)
		}
	}
	return sent, nil
}

// transmitARQ finishes one logical hop whose first attempt failed with
// err, retransmitting it on a lost frame, and returns the number of
// frames the hop sent, the first attempt included. A crashed or depleted
// endpoint aborts immediately (wrapping ErrUnreachable); a hop that stays
// lossy through the retry budget wraps ErrHopExhausted.
func transmitARQ(net *network.Network, from, to int, kind network.Kind, payloadBytes int, opts TxOptions, err error) (int, error) {
	max := opts.retries()
	for attempt := 1; ; attempt++ {
		if errors.Is(err, network.ErrNodeDown) {
			// Retransmitting into a dead radio cannot help.
			return attempt, fmt.Errorf("dcs: hop %d→%d: %v: %w", from, to, err, ErrUnreachable)
		}
		if !errors.Is(err, network.ErrFrameLost) {
			return attempt, err
		}
		if attempt >= max {
			return attempt, fmt.Errorf("dcs: hop %d→%d dropped after %d attempts: %w",
				from, to, attempt, ErrHopExhausted)
		}
		if err = net.Transmit(from, to, kind, payloadBytes); err == nil {
			return attempt + 1, nil
		}
	}
}

// IsDegradable reports whether a transmission failure is one graceful
// degradation absorbs: a dead or partitioned destination, or a hop that
// exhausted its ARQ budget. Anything else is a programming fault the
// storage protocols must surface. Every system (pool, dim, ght, the
// node actor engine) shares this predicate so their degradation
// semantics cannot drift.
func IsDegradable(err error) bool {
	return errors.Is(err, ErrUnreachable) || errors.Is(err, ErrHopExhausted)
}

// Exchange performs one routed exchange under the failure policy every
// synchronous scheme shares — timeout plus one retry. A first loss that
// IsDegradable is re-sent once, counted in comp.Retries, to the node
// retarget names for the node that timed out: the same node when retarget
// is nil, and nowhere — the exchange is given up, no retry counted — when
// it answers negative. A second loss gives the exchange up. Exchange
// returns the node the payload landed at, or -1 when it was given up; any
// failure that is not degradable is returned as the error. The node actor
// engine applies the same rule message by message (node's querySettled).
func Exchange(net *network.Network, router *gpsr.Router, from, to int, kind network.Kind, payloadBytes int,
	opts TxOptions, comp *Completeness, retarget func(lost int) int) (int, error) {
	for retry := false; ; retry = true {
		_, err := UnicastOpts(net, router, from, to, kind, payloadBytes, opts)
		switch {
		case err == nil:
			return to, nil
		case !IsDegradable(err):
			return -1, err
		case retry:
			return -1, nil
		}
		if retarget != nil {
			if to = retarget(to); to < 0 {
				return -1, nil
			}
		}
		comp.Retries++
	}
}

// Degradable is the fault surface of a storage system: mark a node
// failed (running whatever repair the design provides), bring it back,
// and report its status. Every System includes it, node.Engine beneath
// node.Sync implements it, and chaos.Engine drives any number of them
// through this one interface: there is no per-backend registration path.
type Degradable interface {
	// FailNode marks the node failed and repairs or drops its
	// responsibilities. The error covers only unrecoverable states (no
	// surviving node to re-home onto), not degraded ones.
	FailNode(id int) error
	// RecoverNode brings a previously failed node back, empty.
	RecoverNode(id int)
	// Failed reports whether the node is currently marked failed.
	Failed(id int) bool
}

// Completeness reports how much of a query's fan-out was actually served.
// Under churn a query may return a partial answer: some cells (Pool) or
// zones (DIM) stay unreachable through the retry policy. CellsTotal is the
// fan-out size; CellsReached counts the cells whose index nodes were
// queried AND whose replies made it back to the sink; Retries counts
// alternate-destination attempts spent on the way.
type Completeness struct {
	CellsTotal   int
	CellsReached int
	Retries      int
	// Unreached lists the cells or zones left unserved, in fan-out order,
	// by their human-readable ids.
	Unreached []string
}

// Complete reports whether every cell of the fan-out was served.
func (c Completeness) Complete() bool { return c.CellsReached == c.CellsTotal }

// Fraction returns CellsReached/CellsTotal, and 1 for an empty fan-out.
func (c Completeness) Fraction() float64 {
	if c.CellsTotal == 0 {
		return 1
	}
	return float64(c.CellsReached) / float64(c.CellsTotal)
}

// CostReport summarizes the traffic attributable to one operation or one
// batch of operations.
type CostReport struct {
	// Messages is the total number of radio transmissions.
	Messages uint64
	// QueryMessages and ReplyMessages split query-time traffic.
	QueryMessages uint64
	ReplyMessages uint64
	// InsertMessages counts storage traffic.
	InsertMessages uint64
	// EnergyJ is the radio energy spent in joules.
	EnergyJ float64
}

// Report converts a network counter diff into a CostReport.
func Report(diff network.Counters) CostReport {
	return CostReport{
		Messages:       diff.Total(),
		QueryMessages:  diff.Messages[network.KindQuery],
		ReplyMessages:  diff.Messages[network.KindReply],
		InsertMessages: diff.Messages[network.KindInsert],
		EnergyJ:        diff.EnergyJ,
	}
}
