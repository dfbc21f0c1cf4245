package fabric

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func newTestNet(t *testing.T, topo topology.Topology, p Params) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.New()
	net, err := NewNetwork(eng, topo, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net
}

// send runs one message to completion and returns its delivery time.
func send(t *testing.T, eng *sim.Engine, net *Network, src, dst topology.NodeID, size int) sim.Time {
	t.Helper()
	var at sim.Time
	got := false
	net.Send(src, dst, size, func(a sim.Time, err error) {
		if err != nil {
			t.Fatalf("send failed: %v", err)
		}
		at, got = a, true
	})
	eng.Run()
	if !got {
		t.Fatal("send never completed")
	}
	return at
}

func TestSendMatchesZeroLoadLatency(t *testing.T) {
	topo := topology.NewTorus3D(4, 4, 1)
	p := Extoll
	for _, size := range []int{0, 1, 64, 2048, 4096, 65536, 1 << 20} {
		eng, net := newTestNet(t, topo, p)
		got := send(t, eng, net, 0, 3, size)
		want := net.ZeroLoadLatency(0, 3, size)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		// Segment rounding may differ by a few bytes of serialization.
		if diff > 10*sim.Nanosecond {
			t.Errorf("size %d: send=%v zeroload=%v", size, got, want)
		}
	}
}

func TestLatencyGrowsWithHops(t *testing.T) {
	topo := topology.NewTorus3D(8, 1, 1)
	eng, net := newTestNet(t, topo, Extoll)
	t1 := send(t, eng, net, 0, 1, 64)
	eng2, net2 := newTestNet(t, topo, Extoll)
	t4 := send(t, eng2, net2, 0, 4, 64)
	if t4 <= t1 {
		t.Fatalf("4-hop latency %v not above 1-hop %v", t4, t1)
	}
}

func TestBandwidthDominatesLargeMessages(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	eng, net := newTestNet(t, topo, Extoll)
	const size = 16 << 20
	at := send(t, eng, net, 0, 1, size)
	gbps := float64(size) / at.Seconds() / GB
	// Effective bandwidth should approach the 4.6 GB/s link rate.
	if gbps < 3.8 || gbps > 4.7 {
		t.Fatalf("effective bandwidth %.2f GB/s, want close to 4.6", gbps)
	}
}

func TestContentionSerializes(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	eng, net := newTestNet(t, topo, Extoll)
	const size = 1 << 20
	var done []sim.Time
	// Two messages over the same first link.
	for i := 0; i < 2; i++ {
		net.Send(0, 1, size, func(at sim.Time, err error) {
			if err != nil {
				t.Errorf("send: %v", err)
			}
			done = append(done, at)
		})
	}
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("completed %d of 2", len(done))
	}
	solo := net.ZeroLoadLatency(0, 1, size)
	// Second message should take roughly twice the serialization time.
	if done[1] < solo+solo/2 {
		t.Fatalf("no contention visible: second done at %v, solo %v", done[1], solo)
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	topo := topology.NewTorus3D(4, 4, 1)
	eng, net := newTestNet(t, topo, Extoll)
	const size = 1 << 20
	var times []sim.Time
	net.Send(topo.ID(0, 0, 0), topo.ID(1, 0, 0), size, func(at sim.Time, err error) { times = append(times, at) })
	net.Send(topo.ID(0, 2, 0), topo.ID(1, 2, 0), size, func(at sim.Time, err error) { times = append(times, at) })
	eng.Run()
	if len(times) != 2 {
		t.Fatal("sends incomplete")
	}
	solo := net.ZeroLoadLatency(topo.ID(0, 0, 0), topo.ID(1, 0, 0), size)
	for _, at := range times {
		if at > solo+solo/10 {
			t.Fatalf("disjoint transfer delayed: %v vs solo %v", at, solo)
		}
	}
}

func TestLoopback(t *testing.T) {
	topo := topology.NewTorus3D(2, 2, 2)
	eng, net := newTestNet(t, topo, Extoll)
	at := send(t, eng, net, 3, 3, 1<<20)
	if want := Extoll.SendOverhead + Extoll.RecvOverhead; at != want {
		t.Fatalf("loopback time %v, want %v", at, want)
	}
}

func TestRetransmissionAddsLatencyButDelivers(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	clean := Extoll
	dirty := Extoll
	dirty.PacketErrorRate = 0.2
	dirty.MaxRetries = 100
	engC, netC := newTestNet(t, topo, clean)
	tClean := send(t, engC, netC, 0, 2, 1<<20)
	engD := sim.New()
	netD := MustNetwork(engD, topo, dirty, 7)
	tDirty := send(t, engD, netD, 0, 2, 1<<20)
	if netD.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions at 20% error rate")
	}
	if tDirty <= tClean {
		t.Fatalf("dirty link not slower: %v vs %v", tDirty, tClean)
	}
	if netD.Stats.Drops != 0 {
		t.Fatalf("%d drops despite retry budget", netD.Stats.Drops)
	}
}

func TestDropAfterRetryBudget(t *testing.T) {
	topo := topology.NewTorus3D(2, 1, 1)
	p := Extoll
	p.PacketErrorRate = 0.999
	p.MaxRetries = 2
	eng := sim.New()
	net := MustNetwork(eng, topo, p, 3)
	var gotErr error
	net.Send(0, 1, 128, func(_ sim.Time, err error) { gotErr = err })
	eng.Run()
	if gotErr == nil {
		t.Fatal("expected drop at 99.9% error rate with 2 retries")
	}
	if !strings.Contains(gotErr.Error(), "dropped") {
		t.Fatalf("unexpected error: %v", gotErr)
	}
	if net.Stats.Drops != 1 {
		t.Fatalf("drops = %d, want 1", net.Stats.Drops)
	}
}

func TestStatsAccumulate(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	eng, net := newTestNet(t, topo, Extoll)
	send(t, eng, net, 0, 1, 1000)
	if net.Stats.Messages != 1 || net.Stats.BytesDelivered != 1000 {
		t.Fatalf("stats = %+v", net.Stats)
	}
	if net.Stats.Packets == 0 {
		t.Fatal("no packets recorded")
	}
}

// segment is the reference segmentation shape() replaced: size bytes in
// at most maxPackets segments of at least MTU bytes each (except
// possibly the last), as an explicit slice.
func segment(p *Params, size int) []int {
	if size == 0 {
		return []int{0}
	}
	packets := (size + p.MTU - 1) / p.MTU
	if packets > p.maxPackets() {
		packets = p.maxPackets()
	}
	segs := make([]int, packets)
	for i := range segs {
		segs[i] = size / packets
		if i < size%packets {
			segs[i]++
		}
	}
	return segs
}

// TestSegmentPartition: the segment shape partitions the message,
// reproduces the reference segmentation element by element, and its
// serialization times are the sums the packet model pays.
func TestSegmentPartition(t *testing.T) {
	p := Extoll
	for _, size := range []int{0, 1, p.MTU - 1, p.MTU, p.MTU + 1, p.maxPackets()*p.MTU + 7, 1 << 20} {
		sh, want := p.shape(size), segment(&p, size)
		if sh.packets != len(want) || sh.packets > p.maxPackets() {
			t.Fatalf("size %d: %d segments, reference has %d", size, sh.packets, len(want))
		}
		total, ser := 0, sim.Time(0)
		for i, w := range want {
			if got := sh.seg(i); got != w {
				t.Fatalf("size %d: segment %d is %d bytes, reference %d", size, i, got, w)
			}
			total += sh.seg(i)
			ser += p.serTime(w)
		}
		if total != size {
			t.Fatalf("segments of %d sum to %d", size, total)
		}
		if ser0, all := p.serTimes(sh); ser0 != p.serTime(want[0]) || all != ser {
			t.Fatalf("size %d: serTimes = (%v, %v), reference (%v, %v)", size, ser0, all, p.serTime(want[0]), ser)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{LinkBandwidth: 0, MTU: 1},
		{LinkBandwidth: 1, MTU: 0},
		{LinkBandwidth: 1, MTU: 1, PacketErrorRate: 1.0},
		{LinkBandwidth: 1, MTU: 1, LinkLatency: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if err := Extoll.Validate(); err != nil {
		t.Errorf("Extoll preset invalid: %v", err)
	}
	if err := InfiniBandFDR.Validate(); err != nil {
		t.Errorf("InfiniBand preset invalid: %v", err)
	}
	if err := PCIe2x8.Validate(); err != nil {
		t.Errorf("PCIe preset invalid: %v", err)
	}
}

func TestVeloBeatsRMAForSmall(t *testing.T) {
	topo := topology.NewTorus3D(4, 4, 1)
	run := func(useRMA bool, size int) sim.Time {
		eng, net := newTestNet(t, topo, Extoll)
		nic := NewNIC(net, 0, DefaultEngines())
		var at sim.Time
		cb := func(a sim.Time, err error) {
			if err != nil {
				t.Fatalf("transfer: %v", err)
			}
			at = a
		}
		if useRMA {
			nic.RMAPut(5, size, cb)
		} else {
			nic.VeloSend(5, size, cb)
		}
		eng.Run()
		return at
	}
	small := 256
	if velo, rma := run(false, small), run(true, small); velo >= rma {
		t.Fatalf("VELO %v not faster than RMA %v for %d bytes", velo, rma, small)
	}
}

func TestRMACloseToVeloForHuge(t *testing.T) {
	// For multi-megabyte transfers the handshake is negligible: RMA
	// time should be within a few percent of a raw eager send.
	topo := topology.NewTorus3D(4, 1, 1)
	const size = 32 << 20
	eng, net := newTestNet(t, topo, Extoll)
	nic := NewNIC(net, 0, DefaultEngines())
	var rma sim.Time
	nic.RMAPut(1, size, func(a sim.Time, err error) { rma = a })
	eng.Run()
	eng2, net2 := newTestNet(t, topo, Extoll)
	nic2 := NewNIC(net2, 0, DefaultEngines())
	var velo sim.Time
	nic2.VeloSend(1, size, func(a sim.Time, err error) { velo = a })
	eng2.Run()
	if float64(rma) > float64(velo)*1.05 {
		t.Fatalf("RMA %v more than 5%% over raw %v at %d bytes", rma, velo, size)
	}
}

func TestTransferEngineSelection(t *testing.T) {
	topo := topology.NewTorus3D(2, 2, 1)
	eng, net := newTestNet(t, topo, Extoll)
	nic := NewNIC(net, 0, DefaultEngines())
	nic.Transfer(1, 100, func(sim.Time, error) {})
	nic.Transfer(1, 100000, func(sim.Time, error) {})
	eng.Run()
	if nic.VeloMessages != 1 || nic.RMAMessages != 1 {
		t.Fatalf("engine counts velo=%d rma=%d", nic.VeloMessages, nic.RMAMessages)
	}
}

// pcieZeroLoad is the latency Transfer must reach on an idle bus: send
// overhead, serialisation, wire latency and receive overhead, plus the
// staging copy through host memory on a staged bus.
func pcieZeroLoad(b *PCIeBus, size int) sim.Time {
	t := b.P.SendOverhead + b.P.serTime(size) + b.P.LinkLatency + b.P.RecvOverhead
	if b.Staged && size > 0 {
		t += sim.FromSeconds(float64(size) / b.HostMemBandwidth)
	}
	return t
}

func TestPCIeStagingPenalty(t *testing.T) {
	eng := sim.New()
	staged := NewPCIeBus(eng, PCIe2x8, 8*GB, true)
	direct := NewPCIeBus(eng, PCIe2x8, 8*GB, false)
	const size = 4 << 20
	if s, d := pcieZeroLoad(staged, size), pcieZeroLoad(direct, size); s <= d {
		t.Fatalf("staging not penalised: staged %v direct %v", s, d)
	}
	var at sim.Time
	staged.Transfer(size, func(a sim.Time, err error) { at = a })
	eng.Run()
	if at != pcieZeroLoad(staged, size) {
		t.Fatalf("Transfer %v != zero-load latency %v", at, pcieZeroLoad(staged, size))
	}
	if staged.StagingTime == 0 {
		t.Fatal("no staging time recorded")
	}
}

func TestPCIeBusContention(t *testing.T) {
	eng := sim.New()
	bus := NewPCIeBus(eng, PCIe2x8, 8*GB, false)
	const size = 8 << 20
	var times []sim.Time
	for i := 0; i < 4; i++ {
		bus.Transfer(size, func(at sim.Time, err error) { times = append(times, at) })
	}
	eng.Run()
	solo := pcieZeroLoad(bus, size)
	if times[3] < 3*solo {
		t.Fatalf("4 cards sharing the bus finished too fast: %v vs solo %v", times[3], solo)
	}
	if bus.Utilisation() < 0.9 {
		t.Fatalf("bus utilisation %v under back-to-back load", bus.Utilisation())
	}
}

func TestNetworkHotspotUtilisation(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	eng, net := newTestNet(t, topo, Extoll)
	for i := 0; i < 8; i++ {
		net.Send(0, 1, 1<<20, func(sim.Time, error) {})
	}
	eng.Run()
	if net.MaxLinkUtilisation() < 0.9 {
		t.Fatalf("hotspot utilisation %v", net.MaxLinkUtilisation())
	}
}

func TestLinkOutageDelaysThenDelivers(t *testing.T) {
	// A message crossing a failed link is retried by the link layer
	// and completes once the outage ends — slower than on a healthy
	// fabric, but delivered.
	topo := topology.NewTorus3D(4, 1, 1)
	p := Extoll
	p.MaxRetries = 1 << 20
	engC, netC := newTestNet(t, topo, p)
	tClean := send(t, engC, netC, 0, 2, 4096)

	eng, net := newTestNet(t, topo, p)
	route := topo.Route(0, 2)
	net.LinkFailed(int(route[0]))
	if !net.down[net.li(route[0])] {
		t.Fatal("link not marked down")
	}
	eng.At(50*sim.Microsecond, func() { net.LinkRepaired(int(route[0])) })
	tOutage := send(t, eng, net, 0, 2, 4096)
	if net.Stats.LinkOutageHits == 0 {
		t.Fatal("no outage hits recorded")
	}
	if tOutage <= tClean || tOutage < 50*sim.Microsecond {
		t.Fatalf("outage delivery %v not delayed past repair (clean %v)", tOutage, tClean)
	}
	if net.Stats.Drops != 0 {
		t.Fatalf("%d drops despite retry budget", net.Stats.Drops)
	}
}

func TestLinkOutageExhaustsRetryBudget(t *testing.T) {
	topo := topology.NewTorus3D(2, 1, 1)
	p := Extoll
	p.MaxRetries = 3
	eng, net := newTestNet(t, topo, p)
	net.LinkFailed(int(topo.Route(0, 1)[0]))
	var gotErr error
	net.Send(0, 1, 128, func(_ sim.Time, err error) { gotErr = err })
	eng.Run()
	if gotErr == nil {
		t.Fatal("expected drop on permanently failed link")
	}
	if net.Stats.Drops != 1 {
		t.Fatalf("drops = %d, want 1", net.Stats.Drops)
	}
}

func BenchmarkNetworkSend(b *testing.B) {
	topo := topology.NewTorus3D(8, 8, 8)
	eng := sim.New()
	net := MustNetwork(eng, topo, Extoll, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(topology.NodeID(i%512), topology.NodeID((i*7+3)%512), 4096, func(sim.Time, error) {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}
