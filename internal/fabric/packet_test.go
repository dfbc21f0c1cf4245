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
// time, failed) triple, the kernel's event counts, the fabric counters
// and the accumulated energy.
type packetOutcome struct {
	digest    uint64
	last      sim.Time
	failed    int
	stats     Stats
	scheduled uint64
	executed  uint64
	energyJ   float64
}

// runPacketScenario injects messages seeded (start, src, dst, size)
// tuples into an 8^3 EXTOLL torus at packet fidelity. prepare may
// adjust the network and schedule fault events before traffic starts.
func runPacketScenario(t *testing.T, p Params, seed uint64, messages int, window sim.Time,
	prepare func(eng *sim.Engine, net *Network)) packetOutcome {
	t.Helper()
	topo := topology.NewTorus3D(8, 8, 8)
	eng := sim.New()
	net := MustNetwork(eng, topo, p, seed)
	net.SetFidelity(FidelityPacket)
	net.SetEnergyModel(ExtollEnergy)
	if prepare != nil {
		prepare(eng, net)
	}
	r := rng.New(seed)
	at := make([]sim.Time, messages)
	bad := make([]bool, messages)
	completions := 0
	for i := 0; i < messages; i++ {
		start := sim.Time(r.Intn(int(window)))
		src, dst := topology.NodeID(r.Intn(512)), topology.NodeID(r.Intn(512))
		size := []int{0, 64, 2048, 4096, 8192, 65536}[r.Intn(6)]
		eng.At(start, func() {
			net.Send(src, dst, size, func(when sim.Time, err error) {
				completions++
				at[i], bad[i] = when, err != nil
			})
		})
	}
	eng.Run()
	if completions != messages {
		t.Fatalf("%d completions for %d messages", completions, messages)
	}
	out := packetOutcome{
		last: eng.Now(), stats: net.Stats,
		scheduled: eng.Stats().Scheduled, executed: eng.Stats().Executed,
		energyJ: net.EnergyJoules(),
	}
	h := fnv.New64a()
	mix := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i := range at {
		mix(uint64(i))
		mix(uint64(at[i]))
		if bad[i] {
			out.failed++
			mix(1)
		}
	}
	out.digest = h.Sum64()
	return out
}

// TestPacketPathPinned holds the packet model to outcomes captured
// from the closure-chain implementation (forward/traverse) it
// replaced: the typed packet state machine must schedule exactly the
// same events in the same order, so every delivery time, counter and
// joule matches.
func TestPacketPathPinned(t *testing.T) {
	lossy := Extoll
	lossy.PacketErrorRate = 1e-3
	lossy.MaxRetries = 2
	cases := []struct {
		name     string
		p        Params
		seed     uint64
		messages int
		window   sim.Time
		prepare  func(eng *sim.Engine, net *Network)
		want     packetOutcome
	}{
		{name: "clean-contended", p: Extoll, seed: 11, messages: 3000, window: 40 * sim.Microsecond,
			want: packetOutcome{digest: 0x74d8593acd420717, last: 107997502,
				stats:     Stats{Messages: 3000, BytesDelivered: 39100224, Packets: 12270},
				scheduled: 157166, executed: 157166, energyJ: 0.42176509537280654}},
		{name: "lossy-retransmit-drop", p: lossy, seed: 30, messages: 3000, window: 200 * sim.Microsecond,
			want: packetOutcome{digest: 0xcc09269fc1e23bcb, last: 231693708, failed: 1,
				stats:     Stats{Messages: 3000, BytesDelivered: 39370752, Packets: 12357, Retransmits: 83, Drops: 1},
				scheduled: 159217, executed: 159217, energyJ: 0.8779902579712069}},
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
				scheduled: 104930, executed: 104930, energyJ: 0.8712533087743886}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runPacketScenario(t, c.p, c.seed, c.messages, c.window, c.prepare)
			if got != c.want {
				t.Errorf("outcome diverged from the pinned closure-chain run:\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

// TestPacketSendAllocsIndependentOfRoute pins the allocation-free
// packet path: once the link resources exist and the free lists are
// warm, a Send costs the same number of allocations (the message and
// its copy of the route) whether the message crosses 2 links or 12, in
// 1 segment or 16 — nothing per hop, nothing per segment.
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
		send() // create the route's link resources, fill the free lists
		return testing.AllocsPerRun(20, send)
	}
	near, far := hopsTo(2), hopsTo(12)
	big := measure(far, 16*Extoll.MTU) // warms the free lists for 16 segments
	base := measure(near, Extoll.MTU)
	long := measure(far, Extoll.MTU)
	if base != long || base != big {
		t.Errorf("allocations per Send: %v over 2 hops, %v over 12 hops, %v over 12 hops in 16 segments; want all equal",
			base, long, big)
	}
	if base > 2 {
		t.Errorf("%v allocations per Send, want at most 2", base)
	}
	if want := 3 * 22; delivered != want { // AllocsPerRun adds a warm-up run of its own
		t.Fatalf("%d of %d sends delivered", delivered, want)
	}
}
