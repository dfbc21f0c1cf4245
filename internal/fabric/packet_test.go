package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// packetModel is what the packet model must reproduce for one seeded
// scenario: a digest over every message's (index, delivery time,
// failed) triple, the fabric counters, a digest over every owned link's
// busy time, the hot-spot utilisation and the accumulated energy.
type packetModel struct {
	digest  uint64
	last    sim.Time
	failed  int
	stats   Stats
	energyJ float64
	links   uint64
	maxUtil float64
}

// kernelWalk is how the kernel reached a model outcome: its event
// counts and calendar walks. An unchanged event sequence walks the
// calendar identically; a change to the events a hop costs moves the
// walk and must hold the model.
type kernelWalk struct {
	scheduled, executed uint64
	linkSteps, daySteps uint64
}

// packetOutcome is one run of a packetCase: the model outcome and the
// kernel walk, pinned and compared separately, and the error of every
// message that was dropped.
type packetOutcome struct {
	model packetModel
	walk  kernelWalk
	errs  []error
}

// packetCase is one seeded scenario: messages (start, src, dst, size)
// tuples inside window on topo (an 8^3 EXTOLL torus when nil), carried
// by one Network or, when k > 0, by a k-domain Domains at fidelity fid
// (the packet model when zero). prepare may adjust a single Network
// and schedule fault events before traffic starts.
type packetCase struct {
	name     string
	p        Params
	topo     topology.Topology
	k        int
	fid      Fidelity
	seed     uint64
	messages int
	window   sim.Time
	prepare  func(eng *sim.Engine, net *Network)
	model    packetModel
	walk     kernelWalk
}

// topology returns the case's topology, the 8^3 torus by default.
func (c packetCase) topology() topology.Topology {
	if c.topo == nil {
		return topology.NewTorus3D(8, 8, 8)
	}
	return c.topo
}

// traffic draws the case's messages.
func (c packetCase) traffic(topo topology.Topology) []trafficItem {
	r := rng.New(c.seed)
	items := make([]trafficItem, c.messages)
	for i := range items {
		start := sim.Time(r.Intn(int(c.window)))
		src, dst := topology.NodeID(r.Intn(topo.Nodes())), topology.NodeID(r.Intn(topo.Nodes()))
		size := []int{0, 64, 2048, 4096, 8192, 65536}[r.Intn(6)]
		items[i] = trafficItem{start: start, src: src, dst: dst, size: size}
	}
	return items
}

// runPacketScenario plays c and returns its outcome.
func runPacketScenario(t *testing.T, c packetCase) packetOutcome {
	t.Helper()
	topo := c.topology()
	var doms *Domains
	var shards []*Network
	if c.k > 0 {
		doms = MustDomains(topo, c.p, c.seed, evenBounds(topo.Nodes(), c.k))
		doms.SetFidelity(c.fid)
		doms.SetEnergyModel(ExtollEnergy)
		for i := 0; i < c.k; i++ {
			shards = append(shards, doms.Shard(i))
		}
	} else {
		net := MustNetwork(sim.New(), topo, c.p, c.seed)
		net.SetFidelity(c.fid)
		net.SetEnergyModel(ExtollEnergy)
		if c.prepare != nil {
			c.prepare(net.Eng, net)
		}
		shards = []*Network{net}
	}
	items := c.traffic(topo)
	at := make([]sim.Time, len(items))
	errs := make([]error, len(items))
	completed := make([]bool, len(items)) // per index: domains complete concurrently
	for i, it := range items {
		net := shards[0]
		if doms != nil {
			net = doms.ShardOf(it.src)
		}
		net.Eng.At(it.start, func() {
			net.Send(it.src, it.dst, it.size, func(when sim.Time, err error) {
				completed[i] = true
				at[i], errs[i] = when, err
			})
		})
	}
	var out packetOutcome
	m := &out.model
	var kernel sim.Stats
	if doms != nil {
		m.last = doms.Run()
		m.stats, kernel = doms.Stats(), doms.KernelStats().Agg
		m.energyJ, m.maxUtil = doms.EnergyJoules(m.last), doms.MaxLinkUtilisation()
	} else {
		net := shards[0]
		m.last = net.Eng.Run()
		m.stats, kernel = net.Stats, net.Eng.Stats()
		m.energyJ, m.maxUtil = net.EnergyJoules(), net.MaxLinkUtilisation()
	}
	out.walk = kernelWalk{scheduled: kernel.Scheduled, executed: kernel.Executed,
		linkSteps: kernel.LinkSteps, daySteps: kernel.DaySteps}
	h := fnv.New64a()
	mix := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i := range at {
		if !completed[i] {
			t.Fatalf("message %d never completed", i)
		}
		mix(uint64(i))
		mix(uint64(at[i]))
		if errs[i] != nil {
			m.failed++
			mix(1)
		}
	}
	m.digest = h.Sum64()
	h.Reset()
	for _, sh := range shards {
		for i := range sh.down {
			mix(uint64(sh.linkBusyTime(sh.gl(i), m.last)))
		}
	}
	m.links = h.Sum64()
	out.errs = errs
	return out
}

// checkPinned reports where got diverges from c's pins: the model
// outcome, the kernel walk, or both.
func checkPinned(t *testing.T, c packetCase, got packetOutcome) {
	t.Helper()
	if got.model != c.model {
		t.Errorf("model outcome diverged from the pinned run:\n got %#v\nwant %#v", got.model, c.model)
	}
	if got.walk != c.walk {
		t.Errorf("kernel walk diverged from the pinned run:\n got %#v\nwant %#v", got.walk, c.walk)
	}
}

// TestPacketPathPinned holds the packet model to outcomes captured
// from the implementations it replaced — the closure chain
// (forward/traverse) for the first three cases, link booking on
// sim.Resource and then per-link queues for every case since. Every
// change must reproduce the model outcome: every delivery time, link
// busy time, counter and joule, on one engine, on two z-slab domains
// and on two fat-tree domains (the owner-mapped link layout). The
// kernel walk moves only with the events a hop costs, each re-pin with
// its reason. A one-domain Domains is the plain Network, so it
// reproduces the one-engine pins, faults included.
func TestPacketPathPinned(t *testing.T) {
	for _, c := range packetPins() {
		t.Run(c.name, func(t *testing.T) {
			checkPinned(t, c, runPacketScenario(t, c))
		})
	}
}

// packetPins returns TestPacketPathPinned's scenarios. Every kernel
// walk was re-pinned when a hop became one booking and one arrival
// event instead of a serialization event and an arrival.
func packetPins() []packetCase {
	lossy := Extoll
	lossy.PacketErrorRate = 1e-3
	lossy.MaxRetries = 2
	outage := func(eng *sim.Engine, net *Network) {
		// Six links around node 100 fail mid-run and come back.
		for l := 600; l < 606; l++ {
			eng.At(60*sim.Microsecond, func() { net.LinkFailed(l) })
			eng.At(140*sim.Microsecond, func() { net.LinkRepaired(l) })
		}
	}
	pins := []packetCase{
		{name: "clean-contended", p: Extoll, seed: 11, messages: 3000, window: 40 * sim.Microsecond,
			model: packetModel{digest: 0x74d8593acd420717, last: 107997502,
				stats:   Stats{Messages: 3000, BytesDelivered: 39100224, Packets: 12270},
				energyJ: 0.42176509537280654, links: 0xb35c11035dd859f7, maxUtil: 0.7670387413219983},
			// One event per hop, not two: 157 166 events before.
			walk: kernelWalk{scheduled: 83079, executed: 83079, linkSteps: 40532, daySteps: 32172}},
		{name: "lossy-retransmit-drop", p: lossy, seed: 30, messages: 3000, window: 200 * sim.Microsecond,
			model: packetModel{digest: 0xcc09269fc1e23bcb, last: 231693708, failed: 1,
				stats:   Stats{Messages: 3000, BytesDelivered: 39370752, Packets: 12357, Retransmits: 83, Drops: 1},
				energyJ: 0.8779902579712069, links: 0x5d02b9629cc09b24, maxUtil: 0.376689305693187},
			// One event per hop, not two: 159 217 events before.
			walk: kernelWalk{scheduled: 84145, executed: 84145, linkSteps: 91556, daySteps: 13207}},
		{name: "link-outage", p: Extoll, seed: 13, messages: 2000, window: 200 * sim.Microsecond, prepare: outage,
			model: packetModel{digest: 0xc604550cabbd2a52, last: 232080296,
				stats:   Stats{Messages: 2000, BytesDelivered: 26202432, Packets: 8220, Retransmits: 150, LinkOutageHits: 150},
				energyJ: 0.8712533087743886, links: 0x55d9469fc27bf11b, maxUtil: 0.3683283823457378},
			// One event per hop, not two: 104 930 events before.
			walk: kernelWalk{scheduled: 55544, executed: 55544, linkSteps: 28310, daySteps: 18064}},
		{name: "zslab-k2", p: Extoll, k: 2, seed: 11, messages: 3000, window: 40 * sim.Microsecond,
			model: packetModel{digest: 0x389b149ff93ce040, last: 88394022,
				stats:   Stats{Messages: 3000, BytesDelivered: 39100224, Packets: 12270, CrossMessages: 855},
				energyJ: 0.3494988267007898, links: 0x89e839efa92bff61, maxUtil: 0.7405577268562347},
			// One event per hop, not two: 106 283 events before.
			walk: kernelWalk{scheduled: 57210, executed: 57210, linkSteps: 39439, daySteps: 16729}},
		{name: "fattree-k2", p: InfiniBandFDR, topo: topology.NewFatTree(8, 8, 4), k: 2, seed: 12,
			messages: 3000, window: 100 * sim.Microsecond,
			model: packetModel{digest: 0x576699d98cd8be5b, last: 181189270,
				stats:   Stats{Messages: 3000, BytesDelivered: 40216384, Packets: 10783, CrossMessages: 1515},
				energyJ: 0.05643576140800026, links: 0x33e628ed8a2a1576, maxUtil: 0.9088528421136638},
			// One event per hop, not two: 45 554 events before.
			walk: kernelWalk{scheduled: 26490, executed: 26490, linkSteps: 33888, daySteps: 6432}},
		// Sparse traffic over a 12 ms window: long idle stretches walk
		// the calendar's day buckets.
		{name: "sparse-packet", p: Extoll, fid: FidelityPacket, seed: 14, messages: 3000, window: 12 * sim.Millisecond,
			model: packetModel{digest: 0x44c060436aa11e3c, last: 11989041416,
				stats:   Stats{Messages: 3000, BytesDelivered: 40152832, Packets: 12523},
				energyJ: 44.2204412199424, links: 0xb9b25076906277e0, maxUtil: 0.0075419612680066835},
			walk: kernelWalk{scheduled: 84275, executed: 84275, linkSteps: 381584, daySteps: 5906}},
		// The link-outage traffic at flow fidelity: routes over a down
		// link fall back to the packet model and its retransmits, the
		// rest commit as flows. The link busy times match link-outage's.
		{name: "flow-outage", p: Extoll, fid: FidelityFlow, seed: 13, messages: 2000, window: 200 * sim.Microsecond, prepare: outage,
			model: packetModel{digest: 0xd3d87f2be00e7cb6, last: 232080296,
				stats:   Stats{Messages: 2000, BytesDelivered: 26202432, Packets: 8220, Retransmits: 150, LinkOutageHits: 150, FlowMessages: 1985},
				energyJ: 0.8712533087743997, links: 0x55d9469fc27bf11b, maxUtil: 0.3683283823457378},
			walk: kernelWalk{scheduled: 6736, executed: 6736, linkSteps: 5599, daySteps: 1087}},
	}
	for _, c := range pins[:2] {
		c.name, c.k = c.name+"-domains-k1", 1
		pins = append(pins, c)
	}
	return pins
}

// TestDroppedMessageReusedAfterLastSegment replays the lossy pin
// watching the message free list before every event: no record on it
// has a segment in flight or pins a callback, and the record of the
// message that dropped a segment joins it only after the drop, once
// the segments still in flight behind the dropped one have retired.
func TestDroppedMessageReusedAfterLastSegment(t *testing.T) {
	var c packetCase
	for _, pin := range packetPins() {
		if pin.name == "lossy-retransmit-drop" {
			c = pin
		}
	}
	probes, dropped, released := 0, 0, 0
	c.prepare = func(eng *sim.Engine, net *Network) {
		eng.SetProbe(func(sim.Time) {
			probes++
			if dropped == 0 && net.Stats.Drops > 0 {
				dropped = probes
			}
			for m := net.freeMessages; m != nil; m = m.next {
				if m.remaining != 0 || m.done != nil {
					t.Fatalf("free message record with %d segments in flight, callback %v", m.remaining, m.done != nil)
				}
				if m.failed && released == 0 {
					released = probes
				}
			}
		})
	}
	checkPinned(t, c, runPacketScenario(t, c))
	if dropped == 0 || released <= dropped {
		t.Fatalf("drop seen before event %d, its record freed before event %d: want a record that outlives its drop",
			dropped, released)
	}
}

// TestPacketEventBudget holds the packet path to one event per segment
// per hop on the clean and lossy pins. Every executed event is one of:
//   - the harness's At that calls Send, one per message;
//   - the injection, one per message (a loopback's is its delivery);
//   - an arrival, one per segment per hop crossed, plus one per
//     corrupted traversal, minus the hops a dropped segment never
//     reaches;
//   - a retransmit turnaround, one per corrupted traversal that is not
//     the drop;
//   - a delivery, one per message that crossed a link and was not
//     dropped.
func TestPacketEventBudget(t *testing.T) {
	for _, c := range packetPins()[:2] {
		t.Run(c.name, func(t *testing.T) {
			topo := c.topology()
			items := c.traffic(topo)
			got := runPacketScenario(t, c)
			st := got.model.stats
			var hops, unreached, delivered uint64
			for i, it := range items {
				if it.src == it.dst {
					continue
				}
				route := topo.Route(it.src, it.dst)
				hops += uint64(len(route) * c.p.shape(it.size).packets)
				if got.errs[i] == nil {
					delivered++
					continue
				}
				// The drop names its link: the segment crossed the hops
				// before it and reaches none from it on.
				msg := got.errs[i].Error()
				l, err := strconv.Atoi(msg[strings.LastIndex(msg, "/link")+len("/link"):])
				if err != nil {
					t.Fatalf("no link in drop %q", msg)
				}
				unreached += uint64(len(route) - slices.Index(route, topology.LinkID(l)))
			}
			msgs := uint64(len(items))
			arrivals := hops + st.Retransmits - unreached
			turnarounds := st.Retransmits - st.Drops
			if want := msgs + msgs + arrivals + turnarounds + delivered; got.walk.executed != want {
				t.Errorf("%d events executed, want %d: %d At + %d injections + %d arrivals (%d segment hops) + %d turnarounds + %d deliveries",
					got.walk.executed, want, msgs, msgs, arrivals, hops, turnarounds, delivered)
			}
		})
	}
}

// TestLinkTieServesEarlierBooking pins the rule for two segments that
// reach one link at the same picosecond: the one that booked its
// previous hop first is served first, whichever started serializing
// first. Node (0,1,0) sends P, then A behind it, one hop in +X to
// (1,1,0); A books that link at once but serializes only after P. B is
// injected later at (1,0,0), books its +Y hop to (1,1,0) on an idle
// link and is sized to finish it together with A. A and B both go on
// to (1,1,1) over the same +Z link, where A, the earlier booking, goes
// first.
func TestLinkTieServesEarlierBooking(t *testing.T) {
	p := Extoll
	tor := topology.NewTorus3D(4, 4, 4)
	eng := sim.New()
	net := MustNetwork(eng, tor, p, 1)
	var atA, atB sim.Time
	sizeP, sizeA, sizeB := 2048, 512, 1024
	net.Send(tor.ID(0, 1, 0), tor.ID(1, 1, 0), sizeP, func(sim.Time, error) {})
	net.Send(tor.ID(0, 1, 0), tor.ID(1, 1, 1), sizeA, func(at sim.Time, _ error) { atA = at })
	endA := p.SendOverhead + p.serTime(sizeP) + p.serTime(sizeA) // A leaves its first link
	startB := endA - p.serTime(sizeB)
	if startB <= p.SendOverhead || startB >= p.SendOverhead+p.serTime(sizeP) {
		t.Fatalf("B starts at %v: want it after A books and before A serializes", startB)
	}
	eng.At(startB-p.SendOverhead, func() {
		net.Send(tor.ID(1, 0, 0), tor.ID(1, 1, 1), sizeB, func(at sim.Time, _ error) { atB = at })
	})
	eng.Run()
	perHop := p.RouterDelay + p.LinkLatency
	wantA := endA + perHop + p.serTime(sizeA) + perHop + p.RecvOverhead
	if atA != wantA || atB != wantA+p.serTime(sizeB) {
		t.Errorf("A delivered at %v, B at %v; want A first at %v, B behind it at %v",
			atA, atB, wantA, wantA+p.serTime(sizeB))
	}
}

// TestLinkUtilisationMidRun holds a booked link's utilisation to the
// time that has elapsed: ten segments queue on one link, and sampled in
// the middle of the fourth the link reads exactly its elapsed busy
// fraction, not the six and a half segments still booked ahead.
func TestLinkUtilisationMidRun(t *testing.T) {
	p := Extoll
	eng := sim.New()
	net := MustNetwork(eng, topology.NewTorus3D(4, 4, 4), p, 1)
	for range 10 {
		net.Send(0, 1, p.MTU, func(sim.Time, error) {})
	}
	l := net.Topo.Route(0, 1)[0]
	sample := p.SendOverhead + 7*p.serTime(p.MTU)/2
	var u, max float64
	eng.At(sample, func() { u, max = net.LinkUtilisation(l), net.MaxLinkUtilisation() })
	eng.Run()
	if want := float64(sample-p.SendOverhead) / float64(sample); u != want || max != want {
		t.Errorf("utilisation %v, hot spot %v mid-queue; want the elapsed busy fraction %v", u, max, want)
	}
	if want := float64(10*p.serTime(p.MTU)) / float64(eng.Now()); net.LinkUtilisation(l) != want {
		t.Errorf("utilisation %v after the run, want %v", net.LinkUtilisation(l), want)
	}
}

// TestLinkReservationMatchesResource holds the link reservation to the
// sim.Resource queue it replaced: single-segment messages queued on one
// link, one in three traversals corrupted, every retry booking behind
// all earlier requests (the tail of the queue), against a reference run
// of the same requests on a Resource with the same error draws. The
// grants must come in the same order at the same times: every delivery,
// the retransmit count and the link's busy time agree.
func TestLinkReservationMatchesResource(t *testing.T) {
	p := Extoll
	p.PacketErrorRate = 0.3
	p.MaxRetries = 64
	const msgs, seed = 12, 3
	size := func(i int) int { return 64 + 150*i }

	eng := sim.New()
	net := MustNetwork(eng, topology.NewTorus3D(4, 4, 4), p, seed)
	got := make([]sim.Time, msgs)
	for i := range msgs {
		net.Send(0, 1, size(i), func(at sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got[i] = at
		})
	}
	eng.Run()

	ref := sim.New()
	link := sim.NewResource(ref, "link")
	draws := rng.New(seed)
	want := make([]sim.Time, msgs)
	retries, queuedRetries := 0, 0
	var acquire func(i int)
	acquire = func(i int) {
		link.Acquire(p.serTime(size(i)), func(_, _ sim.Time) {
			ref.After(p.RouterDelay+p.LinkLatency, func() {
				if !draws.Bool(p.PacketErrorRate) {
					want[i] = ref.Now() + p.RecvOverhead
					return
				}
				ref.After(p.RetransmitDelay, func() {
					retries++
					if link.QueueLen() > 0 {
						queuedRetries++
					}
					acquire(i)
				})
			})
		})
	}
	for i := range msgs {
		ref.At(p.SendOverhead, func() { acquire(i) })
	}
	ref.Run()

	for i := range want {
		if got[i] != want[i] {
			t.Errorf("message %d delivered at %v, the Resource reference at %v", i, got[i], want[i])
		}
	}
	l := net.Topo.Route(0, 1)[0]
	if busy := net.linkBusyTime(l, eng.Now()); net.Stats.Retransmits != uint64(retries) || busy != link.BusyTime {
		t.Errorf("%d retransmits, link busy %v; the reference: %d, %v",
			net.Stats.Retransmits, busy, retries, link.BusyTime)
	}
	if queuedRetries == 0 {
		t.Fatalf("no retry found the queue occupied (%d retries): the scenario does not test the tail", retries)
	}
}

// TestFlowFabricsMakeNoLinkTable holds the packet path's link table to
// being made on the first packet: an E15-style halo at flow fidelity
// leaves it unmade on a Network and on every shard of a Domains.
func TestFlowFabricsMakeNoLinkTable(t *testing.T) {
	tor := topology.NewTorus3D(16, 16, 16)
	halo := haloTraffic(tor)
	for _, k := range []int{1, 2} {
		var shards []*Network
		var run func() sim.Time
		if k == 1 {
			net := MustNetwork(sim.New(), tor, Extoll, 1)
			shards, run = []*Network{net}, net.Eng.Run
		} else {
			doms := MustDomains(tor, Extoll, 1, evenBounds(tor.Nodes(), k))
			shards, run = []*Network{doms.Shard(0), doms.Shard(1)}, doms.Run
		}
		for _, sh := range shards {
			sh.SetFidelity(FidelityFlow)
		}
		delivered := make([]bool, len(halo)) // per message: domains deliver concurrently
		for i, it := range halo {
			sh := shards[0]
			if k > 1 {
				sh = sh.part.ShardOf(it.src)
			}
			sh.Send(it.src, it.dst, it.size, func(sim.Time, error) { delivered[i] = true })
		}
		run()
		for i, ok := range delivered {
			if !ok {
				t.Fatalf("K=%d: halo message %d undelivered", k, i)
			}
		}
		for i, sh := range shards {
			if sh.links != nil {
				t.Errorf("K=%d: shard %d made a %d-link table for flow traffic", k, i, len(sh.links))
			}
		}
	}
}

// TestPacketSendAllocsIndependentOfRoute pins the allocation-free
// packet path: once the link table exists and the free lists are warm
// (message records with route buffers long enough), a Send allocates
// nothing whether the message crosses 2 links or 12, in 1 segment or
// 16.
func TestPacketSendAllocsIndependentOfRoute(t *testing.T) {
	topo := topology.NewTorus3D(8, 8, 8)
	eng := sim.New()
	net := MustNetwork(eng, topo, Extoll, 1)
	hopsTo := func(hops int) topology.NodeID {
		for dst := topology.NodeID(0); int(dst) < topo.Nodes(); dst++ {
			if len(topo.Route(0, dst)) == hops {
				return dst
			}
		}
		t.Fatalf("no node %d hops from node 0", hops)
		return 0
	}
	delivered := 0
	done := func(_ sim.Time, err error) {
		if err == nil {
			delivered++
		}
	}
	measure := func(dst topology.NodeID, size int) float64 {
		send := func() {
			net.Send(0, dst, size, done)
			eng.Run()
		}
		send() // make the link table, fill the free lists
		return testing.AllocsPerRun(20, send)
	}
	near, far := hopsTo(2), hopsTo(12)
	big := measure(far, 16*Extoll.MTU) // warms the free lists for 16 segments and 12 hops
	base := measure(near, Extoll.MTU)
	long := measure(far, Extoll.MTU)
	if base != long || base != big {
		t.Errorf("allocations per Send: %v over 2 hops, %v over 12 hops, %v over 12 hops in 16 segments; want all equal",
			base, long, big)
	}
	if base != 0 {
		t.Errorf("%v allocations per warm packet Send, want 0", base)
	}
	if want := 3 * 22; delivered != want { // AllocsPerRun adds a warm-up run of its own
		t.Fatalf("%d of %d sends delivered", delivered, want)
	}
}
