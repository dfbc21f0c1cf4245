package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// flowOutcome is the model outcome the flow path must reproduce for
// one seeded scenario: a digest over every message's (index, delivery
// time) pair, the final clock, the fabric counters and the accumulated
// energy.
type flowOutcome struct {
	digest  uint64
	last    sim.Time
	stats   Stats
	energyJ float64
}

// haloTraffic is the six-neighbour exchange of every node of tor, all
// injected at time zero: E15's halo phase.
func haloTraffic(tor *topology.Torus3D) []trafficItem {
	var items []trafficItem
	for id := 0; id < tor.Nodes(); id++ {
		src := topology.NodeID(id)
		x, y, z := tor.Coord(src)
		for _, nb := range [...]topology.NodeID{
			tor.ID(x+1, y, z), tor.ID(x-1, y, z),
			tor.ID(x, y+1, z), tor.ID(x, y-1, z),
			tor.ID(x, y, z+1), tor.ID(x, y, z-1),
		} {
			items = append(items, trafficItem{src: src, dst: nb, size: 2048})
		}
	}
	return items
}

// contendedTraffic draws random multi-hop messages of mixed size
// (empty, sub-MTU, multi-segment, beyond maxPackets*MTU): burst of them
// inside a short window, so flows queue behind each other on shared
// links, then tail more spaced far enough apart that each finds the
// network idle.
func contendedTraffic(tor *topology.Torus3D, burst, tail int, seed uint64, window sim.Time) []trafficItem {
	r := rng.New(seed)
	items := make([]trafficItem, burst+tail)
	for i := range items {
		start := sim.Time(r.Intn(int(window)))
		if i >= burst {
			start = 10*window + sim.Time(i-burst)*50*sim.Microsecond
		}
		items[i] = trafficItem{
			start: start,
			src:   topology.NodeID(r.Intn(tor.Nodes())),
			dst:   topology.NodeID(r.Intn(tor.Nodes())),
			size:  []int{0, 64, 2048, 4096, 8192, 65536}[r.Intn(6)],
		}
	}
	return items
}

// runFlowScenario plays items through an 8^3 EXTOLL torus at fidelity
// fid: on one Network when k == 0, on a k-domain Domains otherwise.
// The kernel walk it returns holds the event counts only.
func runFlowScenario(t *testing.T, fid Fidelity, k int, tor *topology.Torus3D, items []trafficItem) (flowOutcome, kernelWalk) {
	t.Helper()
	at := make([]sim.Time, len(items))
	var out flowOutcome
	var st sim.Stats
	inject := func(eng *sim.Engine, net *Network, i int) {
		it := items[i]
		eng.At(it.start, func() {
			net.Send(it.src, it.dst, it.size, func(when sim.Time, err error) {
				if err != nil {
					panic(err)
				}
				at[i] = when
			})
		})
	}
	if k == 0 {
		eng := sim.New()
		net := MustNetwork(eng, tor, Extoll, 5)
		net.SetFidelity(fid)
		net.SetEnergyModel(ExtollEnergy)
		for i := range items {
			inject(eng, net, i)
		}
		eng.Run()
		st = eng.Stats()
		out = flowOutcome{last: eng.Now(), stats: net.Stats, energyJ: net.EnergyJoules()}
	} else {
		doms := MustDomains(tor, Extoll, 5, evenBounds(tor.Nodes(), k))
		doms.SetFidelity(fid)
		doms.SetEnergyModel(ExtollEnergy)
		for i := range items {
			sh := doms.Shard(doms.Owner(items[i].src))
			inject(sh.Eng, sh, i)
		}
		last := doms.Run()
		st = doms.KernelStats().Agg
		out = flowOutcome{last: last, stats: doms.Stats(), energyJ: doms.EnergyJoules(last)}
	}
	h := fnv.New64a()
	for i := range at {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(i)))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(at[i])))
	}
	out.digest = h.Sum64()
	return out, kernelWalk{scheduled: st.Scheduled, executed: st.Executed}
}

// TestFlowPathPinned holds the flow fidelity to outcomes
// captured from the implementation the pooled flow record replaced
// (an injection closure plus an index into a pending-flow table per
// message). Every change must reproduce the model outcome — every
// delivery time, counter and joule — on one engine, on one domain (the
// plain Network) and on two domains. The contended-packet cases hold
// the same traffic at packet fidelity, the reference the flow cases
// approximate. The event counts move only with the events a packet hop
// costs, each re-pin with its reason.
func TestFlowPathPinned(t *testing.T) {
	tor := topology.NewTorus3D(8, 8, 8)
	halo := haloTraffic(tor)
	random := contendedTraffic(tor, 2000, 400, 17, 40*sim.Microsecond)
	cases := []struct {
		name  string
		fid   Fidelity
		k     int
		items []trafficItem
		want  flowOutcome
		walk  kernelWalk
	}{
		{name: "halo-flow", fid: FidelityFlow, items: halo,
			want: flowOutcome{digest: 0x2895533f9a603425, last: 925217,
				stats:   Stats{Messages: 3072, BytesDelivered: 6291456, Packets: 3072, FlowMessages: 3072},
				energyJ: 0.004039865548800022},
			walk: kernelWalk{scheduled: 9216, executed: 9216}},
		{name: "halo-flow-k2", fid: FidelityFlow, k: 2, items: halo,
			want: flowOutcome{digest: 0x2895533f9a603425, last: 925217,
				stats:   Stats{Messages: 3072, BytesDelivered: 6291456, Packets: 3072, FlowMessages: 3072},
				energyJ: 0.004039865548799998},
			walk: kernelWalk{scheduled: 9216, executed: 9216}},
		{name: "contended-flow", fid: FidelityFlow, items: random,
			want: flowOutcome{digest: 0x3408ec1f5f63af27, last: 20357887821,
				stats:   Stats{Messages: 2400, BytesDelivered: 30526848, Packets: 9626, FlowMessages: 2393},
				energyJ: 75.06520659773439},
			walk: kernelWalk{scheduled: 7193, executed: 7193}},
		{name: "contended-flow-k2", fid: FidelityFlow, k: 2, items: random,
			want: flowOutcome{digest: 0x45188628ef522858, last: 20357887821,
				stats:   Stats{Messages: 2400, BytesDelivered: 30526848, Packets: 9626, FlowMessages: 1711, CrossMessages: 682},
				energyJ: 75.06520659773439},
			walk: kernelWalk{scheduled: 6511, executed: 6511}},
		{name: "contended-packet", fid: FidelityPacket, items: random,
			want: flowOutcome{digest: 0x92946de430ea551d, last: 20357887821,
				stats:   Stats{Messages: 2400, BytesDelivered: 30526848, Packets: 9626},
				energyJ: 75.06520659773437},
			walk: kernelWalk{scheduled: 64175, executed: 64175}},
		{name: "contended-packet-k2", fid: FidelityPacket, k: 2, items: random,
			want: flowOutcome{digest: 0x6c19a09fcb864244, last: 20357887821,
				stats:   Stats{Messages: 2400, BytesDelivered: 30526848, Packets: 9626, CrossMessages: 682},
				energyJ: 75.06520659773439},
			// One event per packet hop, not two: 84 361 events before.
			walk: kernelWalk{scheduled: 45436, executed: 45436}},
	}
	for _, c := range cases {
		if c.k == 0 {
			c.name, c.k = c.name+"-domains-k1", 1
			cases = append(cases, c)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, walk := runFlowScenario(t, c.fid, c.k, tor, c.items)
			if got != c.want {
				t.Errorf("model outcome diverged from the pinned run:\n got %#v\nwant %#v", got, c.want)
			}
			if walk != c.walk {
				t.Errorf("event counts diverged from the pinned run:\n got %#v\nwant %#v", walk, c.walk)
			}
		})
	}
}

// TestFlowSendAllocationFree pins the point of the pooled flow record:
// once a network has carried one message, a flow-level Send and its
// delivery allocate nothing — not per message, per hop or per segment.
func TestFlowSendAllocationFree(t *testing.T) {
	topo := topology.NewTorus3D(8, 8, 8)
	eng := sim.New()
	net := MustNetwork(eng, topo, Extoll, 1)
	net.SetFidelity(FidelityFlow)
	delivered := 0
	done := func(_ sim.Time, err error) {
		if err == nil {
			delivered++
		}
	}
	for _, c := range []struct {
		name string
		hops int
		size int
	}{
		{"1 hop", 1, Extoll.MTU},
		{"12 hops", 12, Extoll.MTU},
		{"12 hops in 16 segments", 12, 16 * Extoll.MTU},
	} {
		dst := topology.NodeID(0)
		for topology.Hops(topo, 0, dst) != c.hops {
			dst++
		}
		send := func() {
			net.Send(0, dst, c.size, done)
			eng.Run()
		}
		send() // the first message sizes the scratch buffers and fills the free lists
		if allocs := testing.AllocsPerRun(20, send); allocs != 0 {
			t.Errorf("%s: %v allocations per warm flow Send, want 0", c.name, allocs)
		}
	}
	if want := 3 * 22; delivered != want || net.Stats.FlowMessages != uint64(want) {
		t.Fatalf("%d sends delivered, %d as flows, want %d", delivered, net.Stats.FlowMessages, want)
	}
}

// countingTorus counts the routes a fabric asks of it.
type countingTorus struct {
	*topology.Torus3D
	routes int
}

func (c *countingTorus) AppendRoute(buf []topology.LinkID, src, dst topology.NodeID) []topology.LinkID {
	c.routes++
	return c.Torus3D.AppendRoute(buf, src, dst)
}

// TestRoutesPerMessage pins how often a message is routed: once, at
// injection, on an unpartitioned network; on a shard also in Send, to
// tell whether it leaves the shard — unless it is one hop, whose link
// OneHop finds without routing and the injection event then carries.
// A one-hop message stays on the shard that owns its source, even
// into the next slab, and crosses from any other. Loopback is never
// routed off a shard, and the delivery times stay the zero-load ones.
func TestRoutesPerMessage(t *testing.T) {
	for _, fid := range []Fidelity{FidelityPacket, FidelityFlow} {
		for _, c := range []struct {
			name     string
			k        int
			src, dst topology.NodeID
			want     int
			cross    uint64
		}{
			{name: "network, loopback", k: 1, dst: 0, want: 0},
			{name: "network, 1 hop", k: 1, dst: 1, want: 1},
			{name: "network, 3 hops", k: 1, dst: 3, want: 1},
			{name: "shard, 1 hop", k: 2, dst: 1, want: 0},
			{name: "shard, 3 hops", k: 2, dst: 3, want: 2},
			// Shard 0 of an 8x8x8 torus holds the planes z = 0..3; node
			// 192 is (0,0,3) and 256 is (0,0,4), the +Z link between them
			// 192's.
			{name: "shard, 1 hop up across the slab boundary", k: 2, src: 192, dst: 256, want: 0},
			{name: "shard, 1 hop from a node another shard owns", k: 2, src: 256, dst: 192, want: 0, cross: 1},
		} {
			topo := &countingTorus{Torus3D: topology.NewTorus3D(8, 8, 8)}
			var at sim.Time
			done := func(when sim.Time, err error) {
				if err != nil {
					t.Error(err)
				}
				at = when
			}
			var net *Network
			var run func() sim.Time
			if c.k == 1 {
				eng := sim.New()
				net, run = MustNetwork(eng, topo, Extoll, 1), eng.Run
			} else {
				doms := MustDomains(topo, Extoll, 1, evenBounds(topo.Nodes(), c.k))
				net, run = doms.Shard(0), doms.Run
			}
			net.SetFidelity(fid)
			net.Eng.At(0, func() { net.Send(c.src, c.dst, Extoll.MTU, done) })
			run()
			if topo.routes != c.want {
				t.Errorf("%v, %s: routed %d times, want %d", fid, c.name, topo.routes, c.want)
			}
			if net.Stats.CrossMessages != c.cross {
				t.Errorf("%v, %s: %d cross messages, want %d", fid, c.name, net.Stats.CrossMessages, c.cross)
			}
			if want := net.ZeroLoadLatency(c.src, c.dst, Extoll.MTU); at != want {
				t.Errorf("%v, %s: delivered at %v, want %v", fid, c.name, at, want)
			}
		}
	}
}

// TestSendRejectsBadEndpoint holds Send to failing at the call, not
// SendOverhead later at injection, now that an unpartitioned network no
// longer routes there.
func TestSendRejectsBadEndpoint(t *testing.T) {
	topo := topology.NewTorus3D(4, 4, 4)
	net := MustNetwork(sim.New(), topo, Extoll, 1)
	for _, pair := range [][2]topology.NodeID{{0, 64}, {64, 0}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%d, %d) on a 64-node torus did not panic", pair[0], pair[1])
				}
			}()
			net.Send(pair[0], pair[1], 8, func(sim.Time, error) {})
		}()
	}
}
