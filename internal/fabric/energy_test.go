package fabric

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// sendAll fires one 64 KiB message per node pair step and runs the
// engine; returns the network for inspection.
func energyRun(t *testing.T, fid Fidelity) *Network {
	t.Helper()
	eng := sim.New()
	tor := topology.NewTorus3D(4, 4, 1)
	net := MustNetwork(eng, tor, Extoll, 1)
	net.SetFidelity(fid)
	net.SetEnergyModel(ExtollEnergy)
	for i := 0; i < 8; i++ {
		net.Send(topology.NodeID(i), topology.NodeID((i+3)%tor.Nodes()), 64<<10,
			func(sim.Time, error) {})
	}
	eng.Run()
	return net
}

// TestEnergyFidelityInvariant: the per-byte-per-hop charge must agree
// between the exact packet model and the flow fast path — energy is
// part of the byte-identical-output contract. Every message must take
// the flow path, or the comparison is packet against packet.
func TestEnergyFidelityInvariant(t *testing.T) {
	packet := energyRun(t, FidelityPacket)
	flow := energyRun(t, FidelityFlow)
	if packet.transferJ <= 0 {
		t.Fatal("packet run accumulated no transfer energy")
	}
	if got := flow.Stats.FlowMessages; got != 8 {
		t.Fatalf("flow run committed %d of 8 messages as flows", got)
	}
	if math.Abs(packet.transferJ-flow.transferJ) > 1e-12*packet.transferJ {
		t.Fatalf("transfer energy diverges: packet %v vs flow %v",
			packet.transferJ, flow.transferJ)
	}
}

// TestEnergyDisabledByDefault: without a model the fabric accumulates
// nothing — the zero-cost default the goldens rely on.
func TestEnergyDisabledByDefault(t *testing.T) {
	eng := sim.New()
	net := MustNetwork(eng, topology.NewTorus3D(2, 2, 1), Extoll, 1)
	net.Send(0, 1, 4096, func(sim.Time, error) {})
	eng.Run()
	if j := net.EnergyJoules(); j != 0 {
		t.Fatalf("unmodelled fabric reports %v J", j)
	}
}

// TestRetransmissionsBurnEnergy: under injected errors the same
// delivered bytes must cost strictly more transfer energy.
func TestRetransmissionsBurnEnergy(t *testing.T) {
	run := func(rate float64) float64 {
		p := Extoll
		p.PacketErrorRate = rate
		p.MaxRetries = 64
		eng := sim.New()
		net := MustNetwork(eng, topology.NewTorus3D(4, 4, 1), p, 11)
		net.SetEnergyModel(ExtollEnergy)
		for i := 0; i < 8; i++ {
			net.Send(topology.NodeID(i), topology.NodeID(i+8), 256<<10, func(sim.Time, error) {})
		}
		eng.Run()
		return net.transferJ
	}
	clean, noisy := run(0), run(5e-2)
	if noisy <= clean {
		t.Fatalf("retransmissions did not inflate energy: clean %v, noisy %v", clean, noisy)
	}
}

// TestIdleLinkDraw: EnergyJoules includes the static per-link draw
// over the run's virtual duration.
func TestIdleLinkDraw(t *testing.T) {
	eng := sim.New()
	tor := topology.NewTorus3D(2, 2, 1)
	net := MustNetwork(eng, tor, Extoll, 1)
	net.SetEnergyModel(ExtollEnergy)
	eng.At(2*sim.Second, func() {})
	eng.Run()
	want := ExtollEnergy.LinkIdleWatts * float64(tor.Links()) * 2
	if got := net.EnergyJoules(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("idle energy %v, want %v", got, want)
	}
}

// TestPCIeStagedPaysDouble: a staged transfer crosses host memory and
// the bus; peer-to-peer pays once.
func TestPCIeStagedPaysDouble(t *testing.T) {
	run := func(staged bool) float64 {
		eng := sim.New()
		bus := NewPCIeBus(eng, PCIe2x8, 8*GB, staged)
		bus.SetEnergyModel(PCIeEnergy)
		bus.Transfer(1<<20, func(sim.Time, error) {})
		eng.Run()
		return bus.transferJ
	}
	if s, p := run(true), run(false); math.Abs(s-2*p) > 1e-12*s {
		t.Fatalf("staged %v J, peer-to-peer %v J; want exactly 2x", s, p)
	}
}
