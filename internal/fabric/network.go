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
	// Packets counts segments: a message's are counted when it is
	// injected, or, crossing a partition boundary, when it is sent.
	Packets     uint64
	Retransmits uint64
	Drops       uint64
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

	// links is the packet path's link table, one reservation per link
	// of the network's range, made on the first packet: flow-only
	// fabrics never allocate it.
	links []link
	down  []bool // per-link outage flag, driven by resil.Injector
	src   *rng.Source
	Stats Stats

	// Partitioned mode (see parallel.go): when part is non-nil this
	// Network is one spatial shard of a Domains fabric over a
	// node-major topology (the torus) — it owns the contiguous link
	// range [linkBase, linkBase+len(down)) and runs on domain's engine.
	// The per-link slices are indexed by li(l), which is the identity
	// on an unpartitioned network (linkBase == 0), so the sequential
	// path is byte-for-byte unchanged.
	part     *Domains
	domain   int
	linkBase int

	// Flow fast-path state (see flow.go): the configured fidelity, the
	// per-link reservation ledger (a link's flow reservation ends at
	// freeAt, and busyTime sums the serialization time booked on it) and
	// a scratch buffer for planned hop start times.
	fidelity   Fidelity
	flowLinks  []link
	flowStarts []sim.Time

	// scratch holds the route of the message being injected or, on a
	// shard, sent. The next one overwrites it, so whatever outlives the
	// current event (the packet path's message) copies it.
	scratch []topology.LinkID

	// kind is the network's entry in its engine's handler table: every
	// fabric event is OnEvent with a flow index or a packet, and a phase.
	kind sim.Kind
	// flows holds a pointer-free record per message between Send and
	// delivery (see flow.go), and dones its completion callback under
	// the same index. freeFlow heads their LIFO free list, threaded
	// through the records; index 0 is never issued, so 0 ends it.
	flows    sim.Pages[flow]
	dones    sim.Pages[func(at sim.Time, err error)]
	freeFlow int32
	nflows   int32 // the highest index issued since no flow was live
	live     int32 // flows between newFlow and release

	// energy is the electrical model; transferJ accumulates per-byte
	// link-traversal energy as delivery events fire. Both the packet
	// path (per segment per hop, retransmissions included) and the
	// flow path (size x hops at commit) charge it, and the two agree
	// exactly on fault-free routes — which is all the flow path ever
	// takes — so energy totals are fidelity-invariant.
	energy    EnergyModel
	transferJ float64

	// msgs holds the packet path's message records (see packetSend),
	// each under its flow's index.
	msgs sim.Pages[message]

	// Obs, when non-nil, receives the fabric timeline as trace events:
	// one message span per Send on the sender's node lane, flow-commit
	// instants when the fast path fires, and link outage instants.
	// Nil — the default — is inert.
	Obs *obs.Scope
}

// SetEnergyModel attaches an electrical model to the fabric. Call
// before injecting traffic.
func (n *Network) SetEnergyModel(e EnergyModel) { n.energy = e }

// EnergyJoules returns the fabric's accumulated energy: transfer
// energy charged as deliveries fired plus the static draw of every
// link in the network's range up to the current virtual time. Zero
// when no model is set. On an unpartitioned network the range is
// every link; a partitioned fabric's total comes from
// Domains.EnergyJoules, which charges the idle term over the
// machine-wide clock instead of the shard clocks.
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
	n.kind = eng.Register(n)
	return n, nil
}

// li maps a global link ID into this network's per-link slices: the
// identity normally, the offset into the link range on a shard.
func (n *Network) li(l topology.LinkID) int { return int(l) - n.linkBase }

// gl maps a per-shard link index back to its global link ID — the
// inverse of li over the network's link range.
func (n *Network) gl(i int) topology.LinkID { return topology.LinkID(i + n.linkBase) }

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
	if n.flowLinks != nil {
		t += n.flowLinks[n.li(l)].busyTime
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
	// A shard tells now whether the message leaves it, by a one-hop link
	// (see route) or by the route; any other network routes at
	// injection and here only checks the endpoints.
	hop, hops, local := int64(0), 0, true
	if n.part != nil {
		if l, ok := n.part.nm.OneHop(src, dst); ok {
			hop, hops, local = int64(l)+1, 1, uint(n.li(l)) < uint(len(n.down))
		} else {
			route := n.route(src, dst, 0)
			hops, local = len(route), n.routeLocal(route)
		}
	} else if nodes := n.Topo.Nodes(); uint(src) >= uint(nodes) || uint(dst) >= uint(nodes) {
		panic(fmt.Sprintf("fabric: send %d -> %d outside the %d nodes of %s", src, dst, nodes, n.Topo.Name()))
	}
	if src == dst {
		// Loopback (the empty route): only the software overheads apply.
		n.Eng.ScheduleKind(n.Eng.Now()+n.P.SendOverhead+n.P.RecvOverhead, n.kind, n.newFlow(src, dst, size, done), flowDeliver)
		return
	}
	if !local {
		n.crossSend(dst, hops, size, done)
		return
	}
	n.Eng.ScheduleKind(n.Eng.Now()+n.P.SendOverhead, n.kind, n.newFlow(src, dst, size, done), hop<<phaseBits|flowInject)
}

// The event phases, carried in the low bits of an event's second
// argument: above them sits a shard's one-hop route (see route) on
// flowInject, and a packet's state on the packet phases (see packet).
const (
	flowInject  = iota // flow: SendOverhead elapsed, choose the model and book the transfer
	flowDeliver        // flow: the last byte has been received
	pktArrived         // packet: serialization, router and wire delay elapsed, CRC check at the far end
	pktRetry           // packet: retransmit turnaround elapsed, book the link again
	phaseBits   = 2
)

// OnEvent implements sim.Handler: it steps flow a0, or the packet the
// arguments carry, through the phase a1 carries.
func (n *Network) OnEvent(now sim.Time, a0, a1 int64) {
	i := int32(a0)
	switch a1 & (1<<phaseBits - 1) {
	case flowInject:
		n.inject(now, i, a1>>phaseBits)
	case flowDeliver:
		size, done := n.release(i)
		n.Stats.BytesDelivered += uint64(size)
		done(now, nil)
	case pktArrived:
		n.arrive(unpack(a0, a1))
	case pktRetry:
		p := unpack(a0, a1)
		p.attempt++
		m := n.msgs.At(p.msg)
		n.acquire(p, m, m.route[p.hop])
	}
}

// route writes the route from src to dst into the scratch buffer. A
// non-zero hop is that route already, the one link hop-1: found by
// OneHop in a shard's Send (neighbour traffic, which link ownership
// keeps on the sender's shard) and carried by the injection event.
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

// message is the state the segments of a packet-model message share,
// under its flow's index: the flow is delivered RecvOverhead after the
// last segment arrives, or, failed, freed when it retires. Its route
// buffer makes it the one fabric record with a pointer.
type message struct {
	route     []topology.LinkID
	z         sizing // a hop reads its segment's time here, not divides
	remaining int    // segments still in flight
	failed    bool
}

// packet is one segment in flight: a state machine the engine steps
// through events, one per hop, so a hop costs no allocation. Each hop
// books the link behind every earlier booking, serializes, then pays
// router and propagation delay; a corrupted traversal is detected by
// CRC at the far end and retransmitted by the link after
// RetransmitDelay. The state travels whole in the event's arguments.
type packet struct {
	msg     int32 // its message's flow
	seg     int32 // its segment of the message
	hop     int32 // index into the message's route of the link being crossed
	attempt int32 // retransmissions of this hop so far, below 1<<30
}

// args packs p and phase into event arguments; unpack reverses it.
func (p packet) args(phase int64) (a0, a1 int64) {
	return int64(p.msg)<<32 | int64(p.seg), int64(p.hop)<<32 | int64(p.attempt)<<phaseBits | phase
}

func unpack(a0, a1 int64) packet {
	return packet{int32(a0 >> 32), int32(a0), int32(a1 >> 32), int32(uint32(a1) >> phaseBits)}
}

// link is one link's reservation: the time its last booking leaves
// the wire and the serialization time booked on it so far. The packet
// path books a segment at a time, the flow path a whole message (see
// flowPlan), each in its own table. FIFO service depends only on the
// order of requests, so a booking takes its time on the wire when it
// asks and never waits in a queue.
type link struct {
	freeAt   sim.Time
	busyTime sim.Time
}

// packetSend injects flow mi into the exact per-packet model: every
// segment contends for every link of the route, which the message
// keeps a copy of.
func (n *Network) packetSend(mi int32, route []topology.LinkID, z *sizing) {
	if n.links == nil {
		n.links = make([]link, len(n.down))
	}
	n.msgs.Reach(mi, &msgPages)
	m := n.msgs.At(mi)
	m.route = append(m.route[:0], route...)
	m.z, m.remaining, m.failed = *z, z.sh.packets, false
	for k := 0; k < z.sh.packets; k++ {
		n.acquire(packet{msg: mi, seg: int32(k)}, m, route[0])
	}
}

// acquire is one whole hop of packet p of message m: it books l, the
// link of the packet's current hop, after every earlier booking — on
// the wire at once if the link is free — and schedules the arrival at
// the far end.
func (n *Network) acquire(p packet, m *message, l topology.LinkID) {
	q := &n.links[n.li(l)]
	ser := m.z.segTime(int(p.seg))
	q.freeAt = max(n.Eng.Now(), q.freeAt) + ser
	q.busyTime += ser
	a0, a1 := p.args(pktArrived)
	n.Eng.ScheduleKind(q.freeAt+n.P.RouterDelay+n.P.LinkLatency, n.kind, a0, a1)
}

// arrive settles packet p's link traversal at its far end.
func (n *Network) arrive(p packet) {
	m := n.msgs.At(p.msg)
	l := m.route[p.hop]
	if n.energy.PerByteJ != 0 {
		// The bytes crossed the link whether or not the CRC rejects
		// them at the far end: retransmissions burn energy, which is
		// exactly what E10's inflation shows.
		n.transferJ += n.energy.PerByteJ * float64(m.z.sh.seg(int(p.seg)))
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
		if int(p.attempt)+1 >= n.P.maxRetries() {
			n.retire(p.msg, m, fmt.Errorf("fabric: packet dropped after %d retries on %s",
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
		a0, a1 := p.args(pktRetry)
		n.Eng.ScheduleKind(n.Eng.Now()+delay, n.kind, a0, a1)
		return
	}
	p.hop++
	p.attempt = 0
	if int(p.hop) == len(m.route) {
		n.retire(p.msg, m, nil)
		return
	}
	n.acquire(p, m, m.route[p.hop])
}

// retire settles message m, flow mi, for a segment that reached its
// destination (err == nil) or was dropped: the first drop fails the
// message at once, the last arrival of an intact one schedules its
// delivery, and the last segment of a failed one frees the flow.
func (n *Network) retire(mi int32, m *message, err error) {
	if err != nil && !m.failed {
		m.failed = true
		n.Stats.Drops++
		(*n.dones.At(mi))(n.Eng.Now(), err)
	}
	m.remaining--
	if m.remaining == 0 && m.failed {
		n.release(mi)
	} else if m.remaining == 0 {
		n.Eng.ScheduleKind(n.Eng.Now()+n.P.RecvOverhead, n.kind, int64(mi), flowDeliver)
	}
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

// sizing is what a message of one size costs on one link: how it is
// cut into segments, and the serialization times of its segments.
type sizing struct {
	sh segShape
	// serBase is the time of a segment of sh.base bytes and serLong of
	// one of sh.base+1. With no such segment (sh.rem == 0) serLong is
	// 0, which saves a float division on every single-segment message.
	serBase, serLong sim.Time
	total            sim.Time // all segments together
}

// size sets z to the sizing of a size-byte message. It fills z in
// place: a returned sizing is too large for registers, and its copy
// through the stack reloads in 16 bytes what was stored in 8, which
// stalls store-to-load forwarding once per message.
func (p *Params) size(z *sizing, size int) {
	z.sh = p.shape(size)
	z.serBase, z.serLong = p.serTime(z.sh.base), 0
	z.total = sim.Time(z.sh.packets) * z.serBase
	if z.sh.rem != 0 {
		z.serLong = p.serTime(z.sh.base + 1)
		z.total = sim.Time(z.sh.rem)*z.serLong + sim.Time(z.sh.packets-z.sh.rem)*z.serBase
	}
}

// segTime returns the serialization time of segment i; segTime(0) is
// the first segment's, which every hop of a pipelined route pays.
func (z *sizing) segTime(i int) sim.Time {
	if i < z.sh.rem {
		return z.serLong
	}
	return z.serBase
}

// zeroLoad is the pipelined store-and-forward latency of a message of
// sizing z over hops idle links: the first segment pays every hop, the
// remaining segments stream behind on the bottleneck (uniform links,
// so any hop).
func (p *Params) zeroLoad(hops int, z *sizing) sim.Time {
	return p.SendOverhead + p.RecvOverhead +
		sim.Time(hops)*(p.RouterDelay+p.LinkLatency+z.segTime(0)) + z.total - z.segTime(0)
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
	var z sizing
	n.P.size(&z, size)
	return n.P.zeroLoad(hops, &z)
}
