package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// sendWith runs one message under the given fidelity on a fresh
// network and returns its delivery time plus the network for stats.
func sendWith(t *testing.T, fid Fidelity, src, dst topology.NodeID, size int) (sim.Time, *Network) {
	t.Helper()
	topo := topology.NewTorus3D(4, 4, 2)
	eng := sim.New()
	net := MustNetwork(eng, topo, Extoll, 1)
	net.SetFidelity(fid)
	var at sim.Time
	ok := false
	net.Send(src, dst, size, func(a sim.Time, err error) {
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		at, ok = a, true
	})
	eng.Run()
	if !ok {
		t.Fatal("send never completed")
	}
	return at, net
}

// TestFlowMatchesPacketUncontended is the core exactness claim: on an
// idle network the flow fast path must reproduce the packet model's
// delivery time to the picosecond, for any size and hop count.
func TestFlowMatchesPacketUncontended(t *testing.T) {
	for _, dst := range []topology.NodeID{1, 3, 21, 31} {
		for _, size := range []int{0, 1, 64, 2048, 4096, 65536, 1 << 20} {
			pkt, _ := sendWith(t, FidelityPacket, 0, dst, size)
			flw, net := sendWith(t, FidelityFlow, 0, dst, size)
			if flw != pkt {
				t.Errorf("dst %d size %d: flow %v != packet %v", dst, size, flw, pkt)
			}
			if net.Stats.FlowMessages != 1 {
				t.Errorf("dst %d size %d: flow path not taken", dst, size)
			}
		}
	}
}

// TestFlowContentionSerializes: in pure flow fidelity, messages on a
// shared link serialize at message granularity.
func TestFlowContentionSerializes(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	eng := sim.New()
	net := MustNetwork(eng, topo, Extoll, 1)
	net.SetFidelity(FidelityFlow)
	const size = 1 << 20
	var done []sim.Time
	for i := 0; i < 2; i++ {
		net.Send(0, 1, size, func(at sim.Time, err error) { done = append(done, at) })
	}
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("completed %d of 2", len(done))
	}
	solo := net.ZeroLoadLatency(0, 1, size)
	if done[1] < solo+solo/2 {
		t.Fatalf("no flow-level contention: second at %v, solo %v", done[1], solo)
	}
	if net.Stats.FlowMessages != 2 {
		t.Fatalf("flow messages = %d", net.Stats.FlowMessages)
	}
}

// TestFlowFallsBackUnderFaults: link outages and error injection need
// per-packet retry dynamics, so even Flow fidelity reverts to the
// exact packet model for affected routes.
func TestFlowFallsBackUnderFaults(t *testing.T) {
	topo := topology.NewTorus3D(4, 1, 1)
	p := Extoll
	p.MaxRetries = 1 << 20
	eng := sim.New()
	net := MustNetwork(eng, topo, p, 1)
	net.SetFidelity(FidelityFlow)
	route := topo.Route(0, 2)
	net.LinkFailed(int(route[0]))
	eng.At(50*sim.Microsecond, func() { net.LinkRepaired(int(route[0])) })
	var at sim.Time
	net.Send(0, 2, 4096, func(a sim.Time, err error) {
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		at = a
	})
	eng.Run()
	if net.Stats.FlowMessages != 0 {
		t.Fatal("fault-affected message took the flow path")
	}
	if net.Stats.LinkOutageHits == 0 || at < 50*sim.Microsecond {
		t.Fatalf("outage not modelled: at=%v hits=%d", at, net.Stats.LinkOutageHits)
	}

	// Error injection likewise forces the packet model.
	pe := Extoll
	pe.PacketErrorRate = 0.2
	pe.MaxRetries = 100
	eng2 := sim.New()
	net2 := MustNetwork(eng2, topo, pe, 7)
	net2.SetFidelity(FidelityFlow)
	net2.Send(0, 2, 1<<20, func(a sim.Time, err error) {})
	eng2.Run()
	if net2.Stats.FlowMessages != 0 {
		t.Fatal("error-injected message took the flow path")
	}
	if net2.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

// TestFlowEventEconomy quantifies the point of the fast path: the
// flow model must use far fewer events than the packet model for the
// same traffic.
func TestFlowEventEconomy(t *testing.T) {
	run := func(fid Fidelity) uint64 {
		topo := topology.NewTorus3D(8, 8, 8)
		eng := sim.New()
		net := MustNetwork(eng, topo, Extoll, 1)
		net.SetFidelity(fid)
		for i := 0; i < 512; i++ {
			net.Send(topology.NodeID(i), topology.NodeID((i*37+11)%512), 64<<10,
				func(sim.Time, error) {})
		}
		eng.Run()
		return eng.Stats().Executed
	}
	pkt := run(FidelityPacket)
	flw := run(FidelityFlow)
	if flw*5 > pkt {
		t.Fatalf("flow path not economical: %d events vs packet %d", flw, pkt)
	}
}

func BenchmarkFlowVsPacketTransfer(b *testing.B) {
	for _, fid := range []Fidelity{FidelityPacket, FidelityFlow} {
		b.Run(fid.String(), func(b *testing.B) {
			topo := topology.NewTorus3D(8, 8, 8)
			eng := sim.New()
			net := MustNetwork(eng, topo, Extoll, 1)
			net.SetFidelity(fid)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Send(topology.NodeID(i%512), topology.NodeID((i*7+3)%512), 64<<10,
					func(sim.Time, error) {})
				if i%1024 == 1023 {
					eng.Run()
				}
			}
			eng.Run()
		})
	}
}
