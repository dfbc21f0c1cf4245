package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// packetOutcome is everything the packet model must reproduce for one
// seeded scenario: a digest over every message's (index, delivery
// time, failed) triple, the kernel's event counts and calendar walks,
// the fabric counters, a digest over every owned link's busy time, the
// hot-spot utilisation and the accumulated energy.
type packetOutcome struct {
	digest    uint64
	last      sim.Time
	failed    int
	stats     Stats
	scheduled uint64
	executed  uint64
	energyJ   float64
	links     uint64
	maxUtil   float64
	// An unchanged event sequence walks the calendar identically.
	linkSteps, daySteps uint64
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
	want     packetOutcome
}

// runPacketScenario plays c and returns its outcome.
func runPacketScenario(t *testing.T, c packetCase) packetOutcome {
	t.Helper()
	topo := c.topo
	if topo == nil {
		topo = topology.NewTorus3D(8, 8, 8)
	}
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
	r := rng.New(c.seed)
	at := make([]sim.Time, c.messages)
	bad := make([]bool, c.messages)
	completed := make([]bool, c.messages) // per index: domains complete concurrently
	for i := 0; i < c.messages; i++ {
		start := sim.Time(r.Intn(int(c.window)))
		src, dst := topology.NodeID(r.Intn(topo.Nodes())), topology.NodeID(r.Intn(topo.Nodes()))
		size := []int{0, 64, 2048, 4096, 8192, 65536}[r.Intn(6)]
		net := shards[0]
		if doms != nil {
			net = doms.ShardOf(src)
		}
		net.Eng.At(start, func() {
			net.Send(src, dst, size, func(when sim.Time, err error) {
				completed[i] = true
				at[i], bad[i] = when, err != nil
			})
		})
	}
	var out packetOutcome
	var kernel sim.Stats
	if doms != nil {
		out.last = doms.Run()
		out.stats, kernel = doms.Stats(), doms.KernelStats().Agg
		out.energyJ, out.maxUtil = doms.EnergyJoules(out.last), doms.MaxLinkUtilisation()
	} else {
		net := shards[0]
		out.last = net.Eng.Run()
		out.stats, kernel = net.Stats, net.Eng.Stats()
		out.energyJ, out.maxUtil = net.EnergyJoules(), net.MaxLinkUtilisation()
	}
	out.scheduled, out.executed = kernel.Scheduled, kernel.Executed
	out.linkSteps, out.daySteps = kernel.LinkSteps, kernel.DaySteps
	h := fnv.New64a()
	mix := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i := range at {
		if !completed[i] {
			t.Fatalf("message %d never completed", i)
		}
		mix(uint64(i))
		mix(uint64(at[i]))
		if bad[i] {
			out.failed++
			mix(1)
		}
	}
	out.digest = h.Sum64()
	h.Reset()
	for _, sh := range shards {
		for i := range sh.down {
			mix(uint64(sh.linkBusyTime(sh.gl(i))))
		}
	}
	out.links = h.Sum64()
	return out
}

// TestPacketPathPinned holds the packet model to outcomes captured
// from the implementations it replaced — the closure chain
// (forward/traverse) for the first three cases, link booking on
// sim.Resource for every field and case since: each change must
// schedule exactly the same events in the same order, so every
// delivery time, link busy time, counter, calendar walk and joule
// matches, on one engine, on two z-slab domains and on two fat-tree
// domains (the owner-mapped link layout). A one-domain Domains is the
// plain Network, so it reproduces the one-engine pins, faults included.
func TestPacketPathPinned(t *testing.T) {
	for _, c := range packetPins() {
		t.Run(c.name, func(t *testing.T) {
			if got := runPacketScenario(t, c); got != c.want {
				t.Errorf("outcome diverged from the pinned run:\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

// packetPins returns TestPacketPathPinned's scenarios.
func packetPins() []packetCase {
	lossy := Extoll
	lossy.PacketErrorRate = 1e-3
	lossy.MaxRetries = 2
	pins := []packetCase{
		{name: "clean-contended", p: Extoll, seed: 11, messages: 3000, window: 40 * sim.Microsecond,
			want: packetOutcome{digest: 0x74d8593acd420717, last: 107997502,
				stats:     Stats{Messages: 3000, BytesDelivered: 39100224, Packets: 12270},
				scheduled: 157166, executed: 157166, energyJ: 0.42176509537280654,
				links: 0xb35c11035dd859f7, maxUtil: 0.7670387413219983, linkSteps: 108267, daySteps: 52127}},
		{name: "lossy-retransmit-drop", p: lossy, seed: 30, messages: 3000, window: 200 * sim.Microsecond,
			want: packetOutcome{digest: 0xcc09269fc1e23bcb, last: 231693708, failed: 1,
				stats:     Stats{Messages: 3000, BytesDelivered: 39370752, Packets: 12357, Retransmits: 83, Drops: 1},
				scheduled: 159217, executed: 159217, energyJ: 0.8779902579712069,
				links: 0x5d02b9629cc09b24, maxUtil: 0.376689305693187, linkSteps: 102639, daySteps: 45703}},
		{name: "link-outage", p: Extoll, seed: 13, messages: 2000, window: 200 * sim.Microsecond,
			prepare: func(eng *sim.Engine, net *Network) {
				// Six links around node 100 fail mid-run and come back.
				for l := 600; l < 606; l++ {
					eng.At(60*sim.Microsecond, func() { net.LinkFailed(l) })
					eng.At(140*sim.Microsecond, func() { net.LinkRepaired(l) })
				}
			},
			want: packetOutcome{digest: 0xc604550cabbd2a52, last: 232080296,
				stats:     Stats{Messages: 2000, BytesDelivered: 26202432, Packets: 8220, Retransmits: 150, LinkOutageHits: 150},
				scheduled: 104930, executed: 104930, energyJ: 0.8712533087743886,
				links: 0x55d9469fc27bf11b, maxUtil: 0.3683283823457378, linkSteps: 65727, daySteps: 27490}},
		{name: "zslab-k2", p: Extoll, k: 2, seed: 11, messages: 3000, window: 40 * sim.Microsecond,
			want: packetOutcome{digest: 0x389b149ff93ce040, last: 88394022,
				stats:     Stats{Messages: 3000, BytesDelivered: 39100224, Packets: 12270, CrossMessages: 855},
				scheduled: 106283, executed: 106283, energyJ: 0.3494988267007898,
				links: 0x89e839efa92bff61, maxUtil: 0.7405577268562347, linkSteps: 92724, daySteps: 25046}},
		{name: "fattree-k2", p: InfiniBandFDR, topo: topology.NewFatTree(8, 8, 4), k: 2, seed: 12,
			messages: 3000, window: 100 * sim.Microsecond,
			want: packetOutcome{digest: 0x576699d98cd8be5b, last: 181189270,
				stats:     Stats{Messages: 3000, BytesDelivered: 40216384, Packets: 10783, CrossMessages: 1515},
				scheduled: 45554, executed: 45554, energyJ: 0.05643576140800026,
				links: 0x33e628ed8a2a1576, maxUtil: 0.9088528421136638, linkSteps: 37021, daySteps: 11111}},
		// Auto falls back to packets, which queue behind busy links, for
		// all but 263 of the messages.
		{name: "auto-queued", p: Extoll, fid: FidelityAuto, seed: 14, messages: 3000, window: 12 * sim.Millisecond,
			want: packetOutcome{digest: 0x44c060436aa11e3c, last: 11989041416,
				stats:     Stats{Messages: 3000, BytesDelivered: 40152832, Packets: 12523, FlowMessages: 263},
				scheduled: 154931, executed: 154931, energyJ: 44.2204412199424,
				links: 0xb9b25076906277e0, maxUtil: 0.0075419612680066835, linkSteps: 583878, daySteps: 1441}},
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
	if got := runPacketScenario(t, c); got != c.want {
		t.Fatalf("outcome diverged from the pinned run:\n got %#v\nwant %#v", got, c.want)
	}
	if dropped == 0 || released <= dropped {
		t.Fatalf("drop seen before event %d, its record freed before event %d: want a record that outlives its drop",
			dropped, released)
	}
}

// TestLinkQueueMatchesResource holds the link queue to the sim.Resource
// it replaced: single-segment messages queued on one link, one in three
// traversals corrupted, every retry re-joining the queue at its tail,
// against a reference run of the same requests on a Resource with the
// same error draws. The grants must come in the same order at the same
// times: every delivery, the retransmit count and the link's busy time
// agree.
func TestLinkQueueMatchesResource(t *testing.T) {
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
	if net.Stats.Retransmits != uint64(retries) || net.linkBusyTime(l) != link.BusyTime {
		t.Errorf("%d retransmits, link busy %v; the reference: %d, %v",
			net.Stats.Retransmits, net.linkBusyTime(l), retries, link.BusyTime)
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
