package fabric

import (
	"fmt"
	"sync"

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
	if f == FidelityFlow && n.flowLinks == nil {
		// Sized to the network's link range: all links normally, the
		// shard's contiguous slice on a partitioned fabric.
		n.flowLinks = make([]link, len(n.down))
	}
}

// flow is one message between Send and the packet model, or — on the
// flow path — between Send and delivery: a pooled record carrying its
// own injection and completion events, its callback in Network.dones.
type flow struct {
	size           int
	src, dst, next int32 // next: free-list link
}

// The pools the networks' record stores take their pages from. Only
// flow and callback pages go back (see release), every callback nil.
var (
	flowPages = sync.Pool{New: func() any { return new([sim.PageLen]flow) }}
	donePages = sync.Pool{New: func() any { return new([sim.PageLen]func(sim.Time, error)) }}
	msgPages  = sync.Pool{New: func() any { return new([sim.PageLen]message) }}
)

// newFlow takes a record off the free list and returns its index.
func (n *Network) newFlow(src, dst topology.NodeID, size int, done func(at sim.Time, err error)) int64 {
	i := n.freeFlow
	if i != 0 {
		n.freeFlow = n.flows.At(i).next
	} else {
		n.nflows++
		i = n.nflows
		n.flows.Reach(i, &flowPages)
		n.dones.Reach(i, &donePages)
	}
	*n.flows.At(i) = flow{size: size, src: int32(src), dst: int32(dst)}
	*n.dones.At(i) = done
	n.live++
	return int64(i)
}

// release returns a record whose message has moved on. The free list
// must not pin the completion callback. Releasing the last live flow
// trims the stores, as an engine's calendar is trimmed when it idles.
func (n *Network) release(i int32) (size int, done func(at sim.Time, err error)) {
	d, f := n.dones.At(i), n.flows.At(i)
	size, done = f.size, *d
	*d, f.next, n.freeFlow = nil, n.freeFlow, i
	if n.live--; n.live == 0 && n.flows.Len() > sim.PageLen {
		n.flows.Trim(&flowPages)
		n.dones.Trim(&donePages)
		n.freeFlow, n.nflows = 0, 0
	}
	return size, done
}

// inject runs flow i's injection event: the model is chosen at
// injection time (after the send overhead), when the route's fault
// state is current, so fault-affected routes take the packet model
// even at flow fidelity.
func (n *Network) inject(now sim.Time, i int32, hop int64) {
	f := *n.flows.At(i)
	src, dst := topology.NodeID(f.src), topology.NodeID(f.dst)
	route := n.route(src, dst, hop)
	var z sizing
	n.P.size(&z, f.size)
	n.Stats.Packets += uint64(z.sh.packets)
	if n.fidelity == FidelityFlow && n.routeFaultFree(route) {
		starts, total, delivery := n.flowPlan(route, &z)
		if n.Obs.Enabled() {
			n.Obs.Instant(obs.LaneNodes+int(src), "fabric", "flow-commit",
				now, obs.KV{K: "dst", V: int(dst)}, obs.KV{K: "bytes", V: f.size})
		}
		n.commitFlow(route, f.size, starts, total)
		n.Eng.ScheduleKind(delivery, n.kind, int64(i), flowDeliver)
		return
	}
	n.packetSend(i, route, &z)
}

// flowPlan computes the flow-level trajectory of one message over
// route at the current virtual time without committing it: the head
// service start on each hop (after waiting out the link's flow
// reservation), the per-link busy-until times, and the delivery time.
// The arithmetic mirrors the packet model's pipelined store-and-
// forward recurrence, so with idle links the two agree exactly.
func (n *Network) flowPlan(route []topology.LinkID, z *sizing) (starts []sim.Time, total sim.Time, delivery sim.Time) {
	ser0, total := z.segTime(0), z.total
	perHop := n.P.RouterDelay + n.P.LinkLatency
	h := n.Eng.Now()
	starts = n.flowStarts[:0]
	for _, l := range route {
		s := max(h, n.flowLinks[n.li(l)].freeAt)
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
		q := &n.flowLinks[n.li(l)]
		q.freeAt = starts[k] + total
		q.busyTime += total
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
