package fabric

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Fidelity selects the transfer model a Network simulates.
//
// The packet model is the reference: every message is segmented and
// every segment traverses every link of its route as its own chain of
// events, contending per link. It is exact but costs O(segments x
// hops) events per message, which caps experiments at a few thousand
// nodes.
//
// The flow model collapses a whole message into a single completion
// event using a per-link busy-until ledger. On an uncontended route
// it reproduces the packet model's delivery time exactly (both reduce
// to the same pipelined store-and-forward arithmetic); under
// contention it approximates FIFO queueing at message granularity:
// a later flow waits for the whole of an earlier one instead of
// interleaving segment-by-segment.
type Fidelity int

// The fidelity levels. The zero value resolves to the packet model so
// that existing construction sites keep their exact behaviour.
const (
	FidelityDefault Fidelity = iota
	FidelityPacket
	FidelityFlow
)

// String implements fmt.Stringer.
func (f Fidelity) String() string {
	switch f {
	case FidelityDefault:
		return "default"
	case FidelityPacket:
		return "packet"
	case FidelityFlow:
		return "flow"
	default:
		return fmt.Sprintf("fidelity-%d", int(f))
	}
}

// ParseFidelity converts a flag value into a Fidelity. "auto" is the
// legacy name of a packet-exact mode and parses as FidelityPacket, so
// old scripts and specs keep running and share packet's content keys.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "", "default":
		return FidelityDefault, nil
	case "packet", "auto":
		return FidelityPacket, nil
	case "flow":
		return FidelityFlow, nil
	default:
		return 0, fmt.Errorf("fabric: unknown fidelity %q (want packet or flow)", s)
	}
}

// SetFidelity selects the transfer model. Call it before injecting
// traffic; switching mid-run would let the two occupancy ledgers (packet
// bookings vs flow reservations) miss each other.
func (n *Network) SetFidelity(f Fidelity) {
	n.fidelity = f
	if f == FidelityFlow && n.flowFree == nil {
		// Sized to the owned link range: all links normally, the
		// shard's contiguous slice on a partitioned fabric.
		n.flowFree = make([]sim.Time, len(n.down))
		n.flowBusy = make([]sim.Time, len(n.down))
	}
}

// flow is one message between Send and the packet model, or — on the
// flow path — between Send and delivery: a pooled record that is its
// own injection and completion event, so a flow-level message costs no
// allocation once the free list is warm.
type flow struct {
	net      *Network
	src, dst topology.NodeID
	size     int
	done     func(at sim.Time, err error)
	next     *flow // free-list link
}

// The flow phases, carried as the first event argument.
const (
	flowInject  = iota // SendOverhead elapsed: choose the model and book the transfer
	flowDeliver        // the last byte has been received
)

// newFlow takes a record off the free list, or a fresh one from the
// slab, so a halo burst's first pass is not an allocation per message.
func (n *Network) newFlow(src, dst topology.NodeID, size int, done func(at sim.Time, err error)) *flow {
	f := n.freeFlows
	if f != nil {
		n.freeFlows = f.next
	} else {
		f = n.flowSlab.New()
		f.net = n
	}
	f.src, f.dst, f.size, f.done = src, dst, size, done
	return f
}

// release returns a record whose message has moved on. The free list
// must not pin the completion callback.
func (n *Network) release(f *flow) (size int, done func(at sim.Time, err error)) {
	size, done = f.size, f.done
	f.done, f.next = nil, n.freeFlows
	n.freeFlows = f
	return size, done
}

// OnEvent implements sim.Handler.
func (f *flow) OnEvent(now sim.Time, phase, hop int64) {
	n := f.net
	if phase == flowDeliver {
		size, done := n.release(f)
		n.Stats.BytesDelivered += uint64(size)
		done(now, nil)
		return
	}
	// The model is chosen at injection time (after the send overhead),
	// when the route's fault state is current: fault-affected routes
	// take the packet model even at flow fidelity.
	route, sh := n.route(f.src, f.dst, hop), n.P.shape(f.size)
	if n.fidelity == FidelityFlow && n.routeFaultFree(route) {
		starts, total, delivery := n.flowPlan(route, sh)
		if n.Obs.Enabled() {
			n.Obs.Instant(obs.LaneNodes+int(f.src), "fabric", "flow-commit",
				now, obs.KV{K: "dst", V: int(f.dst)}, obs.KV{K: "bytes", V: f.size})
		}
		n.commitFlow(route, f.size, starts, total)
		n.Eng.Schedule(delivery, f, flowDeliver, 0)
		return
	}
	size, done := n.release(f)
	n.packetSend(route, sh, size, done)
}

// flowPlan computes the flow-level trajectory of one message over
// route at the current virtual time without committing it: the head
// service start on each hop (after waiting out the link's flow
// reservation), the per-link busy-until times, and the delivery time.
// The arithmetic mirrors the packet model's pipelined store-and-
// forward recurrence, so with idle links the two agree exactly.
func (n *Network) flowPlan(route []topology.LinkID, sh segShape) (starts []sim.Time, total sim.Time, delivery sim.Time) {
	ser0, total := n.P.serTimes(sh)
	perHop := n.P.RouterDelay + n.P.LinkLatency
	h := n.Eng.Now()
	starts = n.flowStarts[:0]
	for _, l := range route {
		s := h
		if free := n.flowFree[n.li(l)]; free > s {
			s = free
		}
		starts = append(starts, s)
		h = s + ser0 + perHop
	}
	n.flowStarts = starts
	delivery = starts[len(starts)-1] + total + perHop + n.P.RecvOverhead
	return starts, total, delivery
}

// commitFlow books the planned trajectory: link reservations and the
// same utilisation statistics the packet model records.
func (n *Network) commitFlow(route []topology.LinkID, size int, starts []sim.Time, total sim.Time) {
	for k, l := range route {
		n.flowFree[n.li(l)] = starts[k] + total
		n.flowBusy[n.li(l)] += total
	}
	n.Stats.FlowMessages++
	if n.energy.PerByteJ != 0 {
		// Fault-free route by construction: the per-hop charge equals
		// what the packet model would have accumulated segment by
		// segment, keeping energy fidelity-invariant.
		n.transferJ += n.energy.TransferJ(size, len(route))
	}
}

// routeFaultFree reports whether the flow model may represent a
// message over route at all: fault injection — a non-zero error rate
// or a link outage — needs per-packet retry dynamics, so affected
// messages always use the exact packet model. This is the cheap
// pre-check run before any flow planning.
func (n *Network) routeFaultFree(route []topology.LinkID) bool {
	if n.P.PacketErrorRate > 0 {
		return false
	}
	for _, l := range route {
		if n.down[n.li(l)] {
			return false
		}
	}
	return true
}
