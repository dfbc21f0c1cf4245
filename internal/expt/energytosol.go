package expt

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// E16: energy to solution across scale — the paper's GFlop/W
// positioning (slide 15: Xeon Phi "energy efficient: 5 GFlop/W";
// slide 3: the ~100 MW exascale power wall) measured end-to-end on
// the event-driven machine instead of asserted from data sheets.
//
// A mixed workload (rounds of a perfectly scalable vector kernel with
// a ring halo exchange, then a fixed scalar control part) runs on
// three machines at three scales: cluster-only (Xeons on the IB fat
// tree), booster-only (KNCs on the EXTOLL torus, where the scalar
// part crawls on an in-order core while every node burns idle power),
// and the co-scheduled DEEP split (kernel on the booster, scalar part
// on the cluster, with the finished boosters power-gated to the sleep
// state for the scalar tail). Node groups publish power-state
// transitions and the fabrics charge per-byte link energy into one
// energy.Recorder as the simulation events fire; energy columns are
// part of this experiment's core output and appear regardless of the
// -energy toggle.
//
// The traffic is one halo message per node per round on disjoint
// routes, so the flow fast path is exact here and packet and flow
// fidelity produce the identical table — the energy fidelity test
// holds E16 to that.

// e16Edges are the booster torus edge lengths swept: 8, 27 and 64
// nodes per side.
var e16Edges = []int{2, 3, 4}

const (
	e16KernelFlopsPerNodeRound = 1e12 // perfectly scalable vector part
	e16ScalarFlops             = 2e10 // main() control flow, one core
	e16HaloBytes               = 64 << 10
	e16DeepClusterNodes        = 2
)

// e16Machine is one side's event-driven state for a run: the node
// group publishing into the recorder and the fabric carrying halos.
type e16Machine struct {
	eng   *sim.Engine
	rec   *energy.Recorder
	group *energy.NodeGroup
	net   *fabric.Network
	ring  []topology.NodeID
}

// e16Halo fires one ring halo message per node and calls done when
// the last delivery fires.
func (m *e16Machine) e16Halo(done func()) {
	n := len(m.ring)
	latch := sim.NewLatch(n, done)
	cb := func(sim.Time, error) { latch.Done() }
	for i, src := range m.ring {
		m.net.Send(src, m.ring[(i+1)%n], e16HaloBytes, cb)
	}
}

// e16Rounds runs `rounds` halo+kernel rounds over the group's nodes
// (idle during the exchange, busy during the kernel) and calls done.
func (m *e16Machine) e16Rounds(model machine.NodeModel, veff float64, rounds int, done func()) {
	n := len(m.ring)
	kernel := model.Time(machine.Kernel{
		Flops: e16KernelFlopsPerNodeRound, ParallelFraction: 1, VectorEfficiency: veff,
	}, model.Cores)
	var round func(r int)
	round = func(r int) {
		if r == rounds {
			done()
			return
		}
		m.e16Halo(func() {
			m.group.Transition(n, machine.PowerIdle, machine.PowerBusy)
			m.group.AddFlops(float64(n) * e16KernelFlopsPerNodeRound)
			m.eng.After(kernel, func() {
				m.group.Transition(n, machine.PowerBusy, machine.PowerIdle)
				round(r + 1)
			})
		})
	}
	round(0)
}

// e16Scalar runs the scalar control part on one node of the group
// (the rest idle) and calls done.
func e16Scalar(eng *sim.Engine, g *energy.NodeGroup, model machine.NodeModel, done func()) {
	ts := model.Time(machine.Kernel{Flops: e16ScalarFlops, ParallelFraction: 0}, 1)
	g.SetBusyUtilisation(1.0 / float64(model.Cores))
	g.Transition(1, machine.PowerIdle, machine.PowerBusy)
	g.AddFlops(e16ScalarFlops)
	eng.After(ts, func() {
		g.Transition(1, machine.PowerBusy, machine.PowerIdle)
		g.SetBusyUtilisation(1)
		done()
	})
}

// e16Result is one configuration's energy-to-solution outcome.
type e16Result struct {
	seconds float64
	joules  float64
	gfw     float64
}

// e16Observe wires one E16 machine into the configured observability
// hub: power transitions on the power lane, fabric message spans, and
// busy-occupancy / link-hotspot gauges. Inert when cfg has no
// observer.
func (m *e16Machine) e16Observe(run *obs.Run) {
	m.group.Obs = run.Scope()
	m.group.ObsTid = obs.LanePower
	m.net.Obs = run.Scope()
	if reg := run.Metrics(); reg != nil {
		reg.Gauge("busy_nodes", "nodes", func() float64 {
			return float64(m.group.InState(machine.PowerBusy))
		})
		reg.Gauge("sleep_nodes", "nodes", func() float64 {
			return float64(m.group.InState(machine.PowerSleep))
		})
		reg.Gauge("max_link_util", "", m.net.MaxLinkUtilisation)
	}
}

// e16Single runs the whole workload on one homogeneous machine.
func e16Single(cfg *Config, label string, model machine.NodeModel, veff float64, topo topology.Topology,
	params fabric.Params, emodel fabric.EnergyModel, rounds int, fid fabric.Fidelity) e16Result {
	eng := sim.New()
	run := cfg.observe(label, eng)
	defer run.Close()
	rec := energy.NewRecorder(eng)
	m := &e16Machine{
		eng:   eng,
		rec:   rec,
		group: rec.MustAddGroup("nodes", model, topo.Nodes()),
		net:   fabric.MustNetwork(eng, topo, params, 2016),
	}
	m.net.SetFidelity(fid)
	m.net.SetEnergyModel(emodel)
	m.e16Observe(run)
	m.ring = make([]topology.NodeID, topo.Nodes())
	for i := range m.ring {
		m.ring[i] = topology.NodeID(i)
	}
	var finish sim.Time
	m.e16Rounds(model, veff, rounds, func() {
		e16Scalar(eng, m.group, model, func() { finish = eng.Now() })
	})
	eng.Run()
	m.net.ObsLinkUtil()
	rec.Charge("fabric", m.net.EnergyJoules())
	return e16Result{finish.Seconds(), rec.Joules(), rec.GFlopsPerWatt()}
}

// e16Deep runs the co-scheduled split: kernel rounds on the booster
// torus, scalar part on the cluster side, boosters power-gated to
// sleep for the scalar tail.
func e16Deep(cfg *Config, label string, k, rounds int, fid fabric.Fidelity) e16Result {
	eng := sim.New()
	run := cfg.observe(label, eng)
	defer run.Close()
	rec := energy.NewRecorder(eng)
	tor := topology.NewTorus3D(k, k, k)
	m := &e16Machine{
		eng:   eng,
		rec:   rec,
		group: rec.MustAddGroup("booster", machine.KNC, tor.Nodes()),
		net:   fabric.MustNetwork(eng, tor, fabric.Extoll, 2016),
	}
	m.net.SetFidelity(fid)
	m.net.SetEnergyModel(fabric.ExtollEnergy)
	m.e16Observe(run)
	m.ring = make([]topology.NodeID, tor.Nodes())
	for i := range m.ring {
		m.ring[i] = topology.NodeID(i)
	}
	cg := rec.MustAddGroup("cluster", machine.Xeon, e16DeepClusterNodes)
	cg.Obs = run.Scope()
	cg.ObsTid = obs.LanePower + 1
	var finish sim.Time
	m.e16Rounds(machine.KNC, 0.9, rounds, func() {
		// Kernel done: the boosters are power-gated for the scalar
		// tail (paying the sleep transition off the critical path)
		// while main() finishes on one cluster core.
		n := tor.Nodes()
		eng.After(machine.KNC.SleepLatency, func() {
			m.group.Transition(n, machine.PowerIdle, machine.PowerSleep)
		})
		e16Scalar(eng, cg, machine.Xeon, func() { finish = eng.Now() })
	})
	eng.Run()
	m.net.ObsLinkUtil()
	rec.Charge("fabric", m.net.EnergyJoules())
	return e16Result{finish.Seconds(), rec.Joules(), rec.GFlopsPerWatt()}
}

func runE16(ctx context.Context, cfg *Config) (*stats.Table, error) {
	fid := cfg.fidelity(fabric.FidelityPacket)
	rounds := cfg.scale(4)
	tab := stats.NewTable(
		"E16 Energy to solution: cluster-only vs booster-only vs co-scheduled DEEP",
		"config", "nodes", "time_s", "energy_kJ", "GFlop/W", "vs_cluster")
	total := 0.0
	for _, k := range e16Edges {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := k * k * k
		cluster := e16Single(cfg, fmt.Sprintf("E16/%d/cluster", n), machine.Xeon, 1,
			topology.NewFatTree(n, 1, 1), fabric.InfiniBandFDR, fabric.InfiniBandEnergy,
			rounds, fid)
		booster := e16Single(cfg, fmt.Sprintf("E16/%d/booster", n), machine.KNC, 0.9,
			topology.NewTorus3D(k, k, k), fabric.Extoll, fabric.ExtollEnergy,
			rounds, fid)
		deep := e16Deep(cfg, fmt.Sprintf("E16/%d/deep", n), k, rounds, fid)
		for _, row := range []struct {
			name string
			r    e16Result
		}{
			{"cluster-only", cluster},
			{"booster-only", booster},
			{"deep", deep},
		} {
			tab.AddRow(fmt.Sprintf("%s/%d", row.name, n), n, row.r.seconds,
				row.r.joules/1e3, row.r.gfw, row.r.gfw/cluster.gfw)
			total += row.r.joules
		}
	}
	tab.SetSummary("joules", total)
	tab.AddNote("%d rounds of a 1 TFlop/node vector kernel + 64 KiB ring halos, then a 20 GFlop scalar part", rounds)
	tab.AddNote("booster-only pays the scalar crawl at full-machine idle draw, and the penalty grows with scale")
	tab.AddNote("expected shape: DEEP >= 2x cluster GFlop/W at every scale, growing as the fixed cluster share amortises; booster-only stays capped by the scalar crawl")
	return tab, nil
}

func init() {
	register(Experiment{
		ID:       "E16",
		Title:    "Energy to solution across scale (GFlop/W positioning)",
		PaperRef: "slides 3, 15",
		Run:      runE16,
	})
}
