package fabric

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Stats aggregates fabric-wide transfer counters.
type Stats struct {
	Messages       uint64
	BytesDelivered uint64
	Packets        uint64
	Retransmits    uint64
	Drops          uint64
	// LinkOutageHits counts packet traversals that found their link
	// down (each burns a retransmission attempt).
	LinkOutageHits uint64
	// FlowMessages counts messages that took the flow-level fast path
	// instead of the per-packet event chain (see Fidelity).
	FlowMessages uint64
	// CrossMessages counts messages whose route crossed a spatial
	// partition boundary and were handed to another domain's engine
	// (always zero on an unpartitioned network).
	CrossMessages uint64
}

// Network simulates one fabric: a topology whose links serialize in
// FIFO order, with propagation delay, per-hop router delay, error
// injection and link-level retransmission.
type Network struct {
	Eng  *sim.Engine
	Topo topology.Topology
	P    Params

	// links is the packet path's link table, one reservation per owned
	// link, made on the first packet: flow-only fabrics never allocate
	// it.
	links []link
	down  []bool // per-link outage flag, driven by resil.Injector
	src   *rng.Source
	Stats Stats

	// Partitioned mode (see parallel.go): when part is non-nil this
	// Network is one spatial shard of a Domains fabric — it owns the
	// contiguous link range [linkBase, linkBase+len(links)) and runs on
	// domain's engine. The per-link slices are indexed by li(l), which
	// is the identity on an unpartitioned network (linkBase == 0), so
	// the sequential path is byte-for-byte unchanged.
	part     *Domains
	domain   int
	linkBase int

	// Owner-mapped shards (topologies whose link IDs are not node-major,
	// e.g. fat trees): slot[l] is the dense index of global link l in
	// the per-link slices, -1 when another shard owns it, and owned
	// lists this shard's global link IDs in slot order. Both are nil on
	// unpartitioned networks and on contiguous node-major shards.
	slot  []int32
	owned []topology.LinkID

	// Flow fast-path state (see flow.go): the configured fidelity, the
	// per-link reservation ledger and a scratch buffer for planned hop
	// start times.
	fidelity   Fidelity
	flowFree   []sim.Time
	flowBusy   []sim.Time
	flowStarts []sim.Time

	// scratch holds the route of the message being injected or, on a
	// shard, sent. The next one overwrites it, so whatever outlives the
	// current event (the packet path's message) copies it.
	scratch []topology.LinkID
	// freeFlows recycles the per-message flow records (see flow.go), a
	// stack through their next pointers as deep as the most messages ever
	// between Send and delivery; flowSlab issues those it cannot supply.
	freeFlows *flow
	flowSlab  sim.Slab[flow]

	// energy is the electrical model; transferJ accumulates per-byte
	// link-traversal energy as delivery events fire. Both the packet
	// path (per segment per hop, retransmissions included) and the
	// flow path (size x hops at commit) charge it, and the two agree
	// exactly on fault-free routes — which is all the flow path ever
	// takes — so energy totals are fidelity-invariant.
	energy    EnergyModel
	transferJ float64

	// freePackets and freeMessages recycle the packet path's records (see
	// packetSend): stacks through their next pointers as deep as the most
	// ever in flight at once. Message records keep their route buffers.
	freePackets  *packet
	freeMessages *message

	// Obs, when non-nil, receives the fabric timeline as trace events:
	// one message span per Send on the sender's node lane, flow-commit
	// instants when the fast path fires, and link outage instants.
	// Nil — the default — is inert.
	Obs *obs.Scope
}

// SetEnergyModel attaches an electrical model to the fabric. Call
// before injecting traffic.
func (n *Network) SetEnergyModel(e EnergyModel) { n.energy = e }

// EnergyModelOf returns the configured electrical model.
func (n *Network) EnergyModelOf() EnergyModel { return n.energy }

// EnergyJoules returns the fabric's accumulated energy: transfer
// energy charged as deliveries fired plus the static draw of every
// owned link up to the current virtual time. Zero when no model is
// set. On an unpartitioned network the owned links are all of them;
// a partitioned fabric's total comes from Domains.EnergyJoules, which
// charges the idle term over the machine-wide clock instead of the
// shard clocks.
func (n *Network) EnergyJoules() float64 {
	return n.transferJ + n.energy.IdleJ(len(n.down), n.Eng.Now())
}

// NewNetwork builds a network over topo with parameters p. The seed
// drives error injection only; a zero error rate network is fully
// deterministic regardless of seed.
func NewNetwork(eng *sim.Engine, topo topology.Topology, p Params, seed uint64) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := &Network{Eng: eng, Topo: topo, P: p, src: rng.New(seed)}
	n.down = make([]bool, topo.Links())
	return n, nil
}

// li maps a global link ID into this network's per-link slices: the
// identity normally, the owned-range offset on a contiguous
// partitioned shard, the dense slot lookup on an owner-mapped shard.
func (n *Network) li(l topology.LinkID) int {
	if n.slot != nil {
		return int(n.slot[l])
	}
	return int(l) - n.linkBase
}

// gl maps a per-shard link index back to its global link ID — the
// inverse of li over this shard's owned links.
func (n *Network) gl(i int) topology.LinkID {
	if n.owned != nil {
		return n.owned[i]
	}
	return topology.LinkID(i + n.linkBase)
}

// linkName renders a diagnostic name for link l on demand.
func (n *Network) linkName(l topology.LinkID) string {
	return fmt.Sprintf("%s/link%d", n.Topo.Name(), l)
}

// MustNetwork is NewNetwork that panics on invalid parameters; for
// experiment setup code where the parameters are compile-time presets.
func MustNetwork(eng *sim.Engine, topo topology.Topology, p Params, seed uint64) *Network {
	n, err := NewNetwork(eng, topo, p, seed)
	if err != nil {
		panic(err)
	}
	return n
}

// linkBusyTime returns the busy time of link l up to now across both
// occupancy ledgers: packet-model bookings and flow reservations. A
// packet booking starts at the latest of its request and the link's
// previous booking, so a link booked past now is busy throughout
// [now, freeAt): that time is booked but has not elapsed.
func (n *Network) linkBusyTime(l topology.LinkID, now sim.Time) sim.Time {
	var t sim.Time
	if n.links != nil {
		q := &n.links[n.li(l)]
		t += q.busyTime - max(0, q.freeAt-now)
	}
	if n.flowBusy != nil {
		t += n.flowBusy[n.li(l)]
	}
	return t
}

// LinkUtilisation returns the busy fraction of link l.
func (n *Network) LinkUtilisation(l topology.LinkID) float64 {
	now := n.Eng.Now()
	if now == 0 {
		return 0
	}
	return float64(n.linkBusyTime(l, now)) / float64(now)
}

// MaxLinkUtilisation returns the highest utilisation over all links,
// the fabric's hot-spot measure.
func (n *Network) MaxLinkUtilisation() float64 {
	max := 0.0
	for l := range n.down {
		if u := n.LinkUtilisation(n.gl(l)); u > max {
			max = u
		}
	}
	return max
}

// Send delivers size bytes from src to dst and invokes done at the
// virtual time the last byte has been received (after RecvOverhead).
// done receives the delivery time and an error that is non-nil only if
// the message exceeded the retransmission budget.
//
// The message is segmented into up to MaxPackets pipelined segments;
// each segment traverses the route store-and-forward, queueing for
// every link in turn. This captures both the
// pipelining of large transfers and link contention between concurrent
// messages.
func (n *Network) Send(src, dst topology.NodeID, size int, done func(at sim.Time, err error)) {
	if size < 0 {
		panic("fabric: negative message size")
	}
	n.Stats.Messages++
	if n.Obs.Enabled() {
		done = n.obsWrap(src, dst, size, done)
	}
	// A shard routes now, to tell whether the message leaves it; any other
	// network routes at injection and here only checks the endpoints.
	var route []topology.LinkID
	if n.part != nil {
		route = n.route(src, dst, 0)
	} else if nodes := n.Topo.Nodes(); uint(src) >= uint(nodes) || uint(dst) >= uint(nodes) {
		panic(fmt.Sprintf("fabric: send %d -> %d outside the %d nodes of %s", src, dst, nodes, n.Topo.Name()))
	}
	if src == dst {
		// Loopback (the empty route): only the software overheads apply.
		n.Eng.ScheduleAfter(n.P.SendOverhead+n.P.RecvOverhead, n.newFlow(src, dst, size, done), flowDeliver, 0)
		return
	}
	sh := n.P.shape(size)
	n.Stats.Packets += uint64(sh.packets)
	if n.part != nil && !n.routeLocal(route) {
		n.crossSend(dst, len(route), sh, size, done)
		return
	}
	var hop int64 // a shard's one-hop route, as link+1: see route
	if len(route) == 1 {
		hop = int64(route[0]) + 1
	}
	n.Eng.ScheduleAfter(n.P.SendOverhead, n.newFlow(src, dst, size, done), flowInject, hop)
}

// route writes the route from src to dst into the scratch buffer. A
// non-zero hop is that route already, the one link hop-1: found by a
// shard's Send (neighbour traffic, which link ownership keeps on the
// sender's shard) and carried by the injection event.
func (n *Network) route(src, dst topology.NodeID, hop int64) []topology.LinkID {
	if hop != 0 {
		n.scratch = append(n.scratch[:0], topology.LinkID(hop-1))
	} else {
		n.scratch = n.Topo.AppendRoute(n.scratch[:0], src, dst)
	}
	return n.scratch
}

// obsWrap interposes on a Send completion callback to emit the
// message's trace span: from the Send call to delivery (or drop) on
// the sender's node lane.
func (n *Network) obsWrap(src, dst topology.NodeID, size int,
	done func(at sim.Time, err error)) func(at sim.Time, err error) {
	t0 := n.Eng.Now()
	return func(at sim.Time, err error) {
		name := "msg"
		if err != nil {
			name = "msg-drop"
		}
		n.Obs.Span(obs.LaneNodes+int(src), "fabric", name, t0, at,
			obs.KV{K: "dst", V: int(dst)}, obs.KV{K: "bytes", V: size})
		done(at, err)
	}
}

// message is the completion record the segments of one packet-model
// message share, and the typed delivery event that fires RecvOverhead
// after the last of them arrives (or, failed, the last segment retires),
// and then returns to the free list.
type message struct {
	net       *Network
	route     []topology.LinkID
	size      int
	remaining int // segments still in flight
	failed    bool
	done      func(at sim.Time, err error)
	next      *message // free-list link
}

// packet is one segment in flight: a state machine the engine steps
// through typed events, one per hop, so a hop costs no allocation. Each
// hop books the link behind every earlier booking, serializes, then
// pays router and propagation delay; a corrupted traversal is detected
// by CRC at the far end and retransmitted by the link after
// RetransmitDelay.
type packet struct {
	msg     *message
	bytes   int
	hop     int     // index into msg.route of the link being crossed
	attempt int     // retransmissions of this hop so far
	next    *packet // free-list link
}

// link is one link's reservation: the time its last booked segment
// leaves the wire and the serialization time booked on it so far. FIFO
// service depends only on the order of requests, so a segment books
// its slot when it asks and never waits in a queue.
type link struct {
	freeAt   sim.Time
	busyTime sim.Time
}

// The packet phases, carried as the first event argument.
const (
	pktArrived = iota // serialization, router and wire delay elapsed: CRC check at the far end
	pktRetry          // retransmit turnaround elapsed: book the link again
)

// packetSend injects one message into the exact per-packet model:
// every segment contends for every link of the route, which the
// message keeps a copy of.
func (n *Network) packetSend(route []topology.LinkID, sh segShape, size int,
	done func(at sim.Time, err error)) {
	if n.links == nil {
		n.links = make([]link, len(n.down))
	}
	m := n.freeMessages
	if m != nil {
		n.freeMessages, m.next = m.next, nil
	} else {
		m = &message{net: n}
	}
	m.route = append(m.route[:0], route...)
	m.size, m.remaining, m.failed, m.done = size, sh.packets, false, done
	for i := 0; i < sh.packets; i++ {
		p := n.freePackets
		if p != nil {
			n.freePackets = p.next
		} else {
			p = new(packet)
		}
		*p = packet{msg: m, bytes: sh.seg(i)}
		p.acquire()
	}
}

// acquire is one whole hop: it books the link of the packet's current
// hop after every earlier booking — on the wire at once if the link is
// free — and schedules the arrival at the far end.
func (p *packet) acquire() {
	n := p.msg.net
	q := &n.links[n.li(p.msg.route[p.hop])]
	ser := n.P.serTime(p.bytes)
	q.freeAt = max(n.Eng.Now(), q.freeAt) + ser
	q.busyTime += ser
	n.Eng.Schedule(q.freeAt+n.P.RouterDelay+n.P.LinkLatency, p, pktArrived, 0)
}

// OnEvent implements sim.Handler: it advances the packet one phase.
func (p *packet) OnEvent(_ sim.Time, phase, _ int64) {
	if phase == pktArrived {
		p.arrive()
		return
	}
	p.attempt++
	p.acquire()
}

// arrive settles one link traversal at its far end.
func (p *packet) arrive() {
	m := p.msg
	n, l := m.net, m.route[p.hop]
	if n.energy.PerByteJ != 0 {
		// The bytes crossed the link whether or not the CRC rejects
		// them at the far end: retransmissions burn energy, which is
		// exactly what E10's inflation shows.
		n.transferJ += n.energy.PerByteJ * float64(p.bytes)
	}
	corrupted := n.P.PacketErrorRate > 0 && n.src.Bool(n.P.PacketErrorRate)
	down := n.down[n.li(l)]
	if down {
		// A failed link delivers nothing: the CRC handshake times out
		// and the link layer retries, exactly like a corrupted
		// traversal, until the outage ends or the retry budget is
		// exhausted.
		n.Stats.LinkOutageHits++
		corrupted = true
	}
	if corrupted {
		n.Stats.Retransmits++
		if p.attempt+1 >= n.P.maxRetries() {
			n.retire(p, fmt.Errorf("fabric: packet dropped after %d retries on %s",
				p.attempt+1, n.linkName(l)))
			return
		}
		delay := n.P.RetransmitDelay
		if down {
			// Outages last far longer than a CRC turnaround: back off
			// exponentially so a packet parked on a failed link costs
			// O(log outage) events instead of busy-spinning at the
			// retransmit cadence.
			delay <<= uint(min(p.attempt, 20))
		}
		n.Eng.ScheduleAfter(delay, p, pktRetry, 0)
		return
	}
	p.hop++
	p.attempt = 0
	if p.hop == len(m.route) {
		n.retire(p, nil)
		return
	}
	p.acquire()
}

// retire frees a packet that reached its destination (err == nil) or
// was dropped, and settles its message: the first drop fails the
// message at once, the last arrival of an intact one schedules its
// delivery, and the last segment of a failed one frees the record.
func (n *Network) retire(p *packet, err error) {
	m := p.msg
	*p = packet{next: n.freePackets} // the free list must not pin the message
	n.freePackets = p
	if err != nil && !m.failed {
		m.failed = true
		n.Stats.Drops++
		m.done(n.Eng.Now(), err)
	}
	m.remaining--
	if m.remaining == 0 && m.failed {
		n.releaseMessage(m)
	} else if m.remaining == 0 {
		n.Eng.ScheduleAfter(n.P.RecvOverhead, m, 0, 0)
	}
}

// releaseMessage returns a settled record to the free list, which must
// not pin its completion callback, and hands that callback back.
func (n *Network) releaseMessage(m *message) func(at sim.Time, err error) {
	done := m.done
	m.done, m.next = nil, n.freeMessages
	n.freeMessages = m
	return done
}

// OnEvent implements sim.Handler: the receive overhead has elapsed
// and the message is delivered.
func (m *message) OnEvent(now sim.Time, _, _ int64) {
	n := m.net
	n.Stats.BytesDelivered += uint64(m.size)
	n.releaseMessage(m)(now, nil)
}

// segShape is how a message is cut into segments: packets of them, the
// first rem carrying base+1 bytes and the rest base.
type segShape struct{ packets, base, rem int }

// shape splits size bytes into at most maxPackets segments of at least
// MTU bytes each (except possibly the last).
func (p *Params) shape(size int) segShape {
	if size <= p.MTU {
		return segShape{packets: 1, base: size}
	}
	packets := min((size+p.MTU-1)/p.MTU, p.maxPackets())
	return segShape{packets: packets, base: size / packets, rem: size % packets}
}

// seg returns the size of segment i.
func (s segShape) seg(i int) int {
	if i < s.rem {
		return s.base + 1
	}
	return s.base
}

// serTimes returns the serialization time of the first segment and of
// all segments together on one link.
func (p *Params) serTimes(s segShape) (ser0, total sim.Time) {
	base := p.serTime(s.base)
	if s.rem == 0 {
		return base, sim.Time(s.packets) * base
	}
	ser0 = p.serTime(s.base + 1)
	return ser0, sim.Time(s.rem)*ser0 + sim.Time(s.packets-s.rem)*base
}

// zeroLoad is the pipelined store-and-forward latency of a message of
// shape sh over hops idle links: the first segment pays every hop, the
// remaining segments stream behind on the bottleneck (uniform links,
// so any hop).
func (p *Params) zeroLoad(hops int, sh segShape) sim.Time {
	ser0, total := p.serTimes(sh)
	return p.SendOverhead + p.RecvOverhead +
		sim.Time(hops)*(p.RouterDelay+p.LinkLatency+ser0) + total - ser0
}

// LinkFailed implements resil.LinkTarget: the link stops delivering
// packets until LinkRepaired. Traffic crossing it burns retransmission
// attempts and is eventually dropped if the outage outlasts the retry
// budget.
func (n *Network) LinkFailed(l int) {
	if n.part != nil {
		panic("fabric: link outages are not supported under the partitioned kernel")
	}
	n.down[l] = true
	if n.Obs.Enabled() {
		n.Obs.Instant(obs.LaneLinks+l, "fault", "link-down", n.Eng.Now(), obs.KV{K: "link", V: l})
	}
}

// LinkRepaired implements resil.LinkTarget.
func (n *Network) LinkRepaired(l int) {
	if n.part != nil {
		panic("fabric: link outages are not supported under the partitioned kernel")
	}
	n.down[l] = false
	if n.Obs.Enabled() {
		n.Obs.Instant(obs.LaneLinks+l, "fault", "link-up", n.Eng.Now(), obs.KV{K: "link", V: l})
	}
}

// LinkDown reports whether link l is currently failed.
func (n *Network) LinkDown(l topology.LinkID) bool { return n.down[n.li(l)] }

// ObsLinkUtil emits one link-util instant per link with non-zero
// occupancy at the current time — the per-link hotspot markers
// cmd/deeptrace aggregates. Call after the run completes; a nil or
// disabled scope makes it a no-op.
func (n *Network) ObsLinkUtil() {
	if !n.Obs.Enabled() {
		return
	}
	now := n.Eng.Now()
	for i := range n.down {
		l := int(n.gl(i))
		if u := n.LinkUtilisation(topology.LinkID(l)); u > 0 {
			n.Obs.Instant(obs.LaneLinks+l, "fabric", "link-util", now,
				obs.KV{K: "link", V: l}, obs.KV{K: "utilisation", V: u})
		}
	}
}

// ZeroLoadLatency returns the modelled latency of a size-byte message
// between src and dst on an idle network: overheads + per-hop router
// and propagation delays + pipelined serialization. It matches what
// Send reports when nothing else contends.
func (n *Network) ZeroLoadLatency(src, dst topology.NodeID, size int) sim.Time {
	hops := topology.Hops(n.Topo, src, dst)
	if hops == 0 {
		return n.P.SendOverhead + n.P.RecvOverhead
	}
	return n.P.zeroLoad(hops, n.P.shape(size))
}
