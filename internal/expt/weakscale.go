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

// E15: weak scaling of a booster-resident stencil code from 1k to 100k
// Booster Nodes. The paper positions the Booster as the side of the
// machine that scales to "huge node counts"; this experiment puts a
// number on it with the event-driven fabric rather than the closed-form
// efficiency model. Each round a node exchanges fixed-size halos with
// its six torus neighbours (perfectly scalable: one message per link),
// runs a fixed per-node kernel, and joins a dimension-ordered global
// reduction whose critical path grows with the torus edge — the n^(1/3)
// term that eats weak-scaling efficiency at 100k nodes.
//
// The sweep defaults to the flow-level fabric fidelity: per-message
// completion events instead of per-packet chains, which is what makes
// a 100k-node machine simulable in CI time. Packet fidelity produces
// the identical table (the traffic is uncontended, where the flow
// model is exact), just slower — TestE15FlowMatchesPacket compares
// every artefact of the two on exactly that.

// e15Edges are the torus edge lengths swept: k^3 nodes each, 1000 to
// 103823 ("100k boosters"). Edge 100 — a million-node booster — lies
// beyond the sequential kernel's practical ceiling; it joins the sweep
// only when Config.MaxNodes admits it and requires Domains > 1.
var e15Edges = []int{10, 16, 25, 40, 47, 100}

// e15SeqMaxNodes is the largest machine the default sweep visits:
// 47^3, the paper's "100k boosters" point.
const e15SeqMaxNodes = 103823

// e15Sweep resolves the edge list for cfg: bounded by MaxNodes
// (default the sequential ceiling), rejecting points only the
// partitioned kernel can reach when Domains == 1.
func e15Sweep(cfg *Config) ([]int, error) {
	limit := cfg.maxNodes(e15SeqMaxNodes)
	var edges []int
	for _, k := range e15Edges {
		if n := k * k * k; n <= limit {
			if n > e15SeqMaxNodes && cfg.domains() == 1 {
				return nil, fmt.Errorf(
					"expt: E15 at %d^3 = %d nodes exceeds the sequential kernel's ceiling; set Domains >= 2 to use the partitioned kernel", k, n)
			}
			edges = append(edges, k)
		}
	}
	return edges, nil
}

const (
	e15HaloBytes   = 2048 // one MTU per neighbour exchange
	e15ReduceBytes = 64   // one cache line of partial sums
)

// e15Kernel is the fixed per-node, per-round compute: a bandwidth-bound
// stencil update sized so compute and the halo exchange overlap-free
// round trip are of comparable magnitude.
var e15Kernel = machine.Kernel{
	Flops:            2e8,
	Bytes:            1.2e8,
	ParallelFraction: 0.999,
	VectorEfficiency: 0.8,
}

// e15HaloSlab injects the halo exchange of the nodes in [lo, hi). On a
// partitioned fabric the slab range must match the shard: a halo is a
// single hop over the source's own link, so every send stays
// shard-local even when the neighbour lives in the next slab.
func e15HaloSlab(net *fabric.Network, tor *topology.Torus3D, lo, hi int, cb func(sim.Time, error)) {
	for id := lo; id < hi; id++ {
		src := topology.NodeID(id)
		x, y, z := tor.Coord(src)
		for _, nb := range [...]topology.NodeID{
			tor.ID(x+1, y, z), tor.ID(x-1, y, z),
			tor.ID(x, y+1, z), tor.ID(x, y-1, z),
			tor.ID(x, y, z+1), tor.ID(x, y, z-1),
		} {
			net.Send(src, nb, e15HaloBytes, cb)
		}
	}
}

// e15Chain passes a partial sum down ring[i] -> ring[i-1] -> ... ->
// ring[0], one message at a time, then calls done. Every sender
// ring[1:] must be owned by net's shard; ring[0] may live on the slab
// below (a send's link belongs to its source, so the boundary hop is
// still shard-local). One completion callback serves every hop of the
// chain.
func e15Chain(net *fabric.Network, ring []topology.NodeID, done func()) {
	i := len(ring) - 1
	var hop func(sim.Time, error)
	hop = func(sim.Time, error) {
		if i == 0 {
			done()
			return
		}
		from, to := ring[i], ring[i-1]
		i--
		net.Send(from, to, e15ReduceBytes, hop)
	}
	hop(0, nil)
}

// e15Notes appends the table's interpretation notes.
func e15Notes(tab *stats.Table, cfg *Config) {
	tab.AddNote("halo exchange is one message per link and stays flat at any scale (the booster's design point)")
	tab.AddNote("the global reduction's 3(k-1)-hop critical path grows as n^(1/3): global sync, not halos, erodes weak scaling")
	tab.AddNote("expected shape: weak_eff decays gently to ~100k nodes; round time stays in the same millisecond decade")
	if cfg.energyOn() {
		tab.AddNote("energy: nodes idle during exchanges and busy during the kernel; GFlop/W erodes with weak efficiency as the reduction tail grows")
	}
}

// runE15 runs the sweep over K domain engines (K=1 included) under
// conservative window synchronization. The coordinator drives the
// phases as run-to-quiescence barriers: every E15 phase ends at the
// virtual time of its last delivery, so the table is the same at every
// K. (Fabric energy totals are summed shard by shard, so with Energy
// on the floating-point tail of the joules column is byte-stable per
// fixed K, not across K.)
//
// Phase decomposition: halos and the X/Y reduction chains are
// slab-local under dimension-ordered routing (a send's link belongs to
// its source node), so each domain advances them independently within
// the conservative windows. Only the final Z line walks across slabs;
// the coordinator runs its per-slab segments top-down, each starting
// at the quiescence time of the previous: the reduction's 3(k-1)-hop
// critical path.
func runE15(ctx context.Context, cfg *Config) (*stats.Table, error) {
	edges, err := e15Sweep(cfg)
	if err != nil {
		return nil, err
	}
	fid := cfg.fidelity(fabric.FidelityFlow)
	rounds := cfg.scale(1)
	compute := machine.KNC.Time(e15Kernel, machine.KNC.Cores)
	tab := stats.NewTable(
		"E15 Weak scaling on the booster torus, 1k -> 100k nodes",
		cfg.energyHeaders("torus", "nodes", "peak_TF", "round_ms", "halo_us", "reduce_us", "weak_eff")...)
	var base sim.Time
	var kexec, kwin, kblocked, kcross, kwide uint64
	for _, k := range edges {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		doms, tor := machine.BoosterFabricPar(k, k, k, cfg.domains(), fid, 2013)
		if mw := cfg.maxWindow(); mw > 1 {
			doms.SetMaxWindow(mw)
		}
		cl := doms.Cluster()
		K := doms.Domains()
		bounds := doms.Bounds()
		n := tor.Nodes()
		sys := machine.BoosterSystem(n)
		// The coordinator's clock engine carries the energy recorder; it
		// advances to each phase boundary so power-state transitions
		// integrate at the phase times.
		clock := sim.New()
		var rec *energy.Recorder
		var grp *energy.NodeGroup
		if cfg.energyOn() {
			rec = energy.NewRecorder(clock)
			grp = rec.MustAddGroup("booster", machine.KNC, n)
			doms.SetEnergyModel(fabric.ExtollEnergy)
		}
		run := cfg.observe(fmt.Sprintf("E15-%s-K%d", tor.Name(), K), clock)
		if scope := run.Scope(); scope.Enabled() {
			for d := 0; d < K; d++ {
				scope.Thread(obs.LaneDomains+d, fmt.Sprintf("domain %d", d))
			}
			cl.OnWindow = func(_ uint64, start, deadline sim.Time, ran []bool) {
				for d, r := range ran {
					if !r {
						scope.Span(obs.LaneDomains+d, "domains", "blocked", start, deadline)
					}
				}
			}
		}

		// The reduction rings, grouped by owning domain. Z-line
		// segments run top slab first, each chaining down to the top
		// node of the slab below.
		ring := func(m int, coord func(i int) topology.NodeID) []topology.NodeID {
			r := make([]topology.NodeID, m)
			for i := range r {
				r[i] = coord(i)
			}
			return r
		}
		ringsX := make([][][]topology.NodeID, K)
		ringsY := make([][][]topology.NodeID, K)
		for z := 0; z < k; z++ {
			z := z
			d := doms.Owner(tor.ID(0, 0, z))
			for y := 0; y < k; y++ {
				y := y
				ringsX[d] = append(ringsX[d], ring(k, func(i int) topology.NodeID { return tor.ID(i, y, z) }))
			}
			ringsY[d] = append(ringsY[d], ring(k, func(i int) topology.NodeID { return tor.ID(0, i, z) }))
		}
		xy := k * k
		segZ := make([][]topology.NodeID, K)
		for d := 0; d < K; d++ {
			zlo, zhi := bounds[d]/xy, bounds[d+1]/xy
			lo := max(zlo-1, 0)
			segZ[d] = ring(zhi-lo, func(i int) topology.NodeID { return tor.ID(0, 0, lo+i) })
		}

		noop := func() {}
		// halo injects every slab's six-neighbour exchange at time t
		// and runs the cluster to quiescence.
		halo := func(t sim.Time) sim.Time {
			for d := 0; d < K; d++ {
				sh := doms.Shard(d)
				lo, hi := bounds[d], bounds[d+1]
				cl.Engine(d).At(t, func() { e15HaloSlab(sh, tor, lo, hi, func(sim.Time, error) {}) })
			}
			return cl.Run()
		}
		// chains starts each domain's slab-local chain set at time t.
		chains := func(t sim.Time, byDomain [][][]topology.NodeID) sim.Time {
			for d := 0; d < K; d++ {
				if len(byDomain[d]) == 0 {
					continue
				}
				sh, rings := doms.Shard(d), byDomain[d]
				cl.Engine(d).At(t, func() {
					for _, r := range rings {
						e15Chain(sh, r, noop)
					}
				})
			}
			return cl.Run()
		}
		reduceZ := func(t sim.Time) sim.Time {
			for d := K - 1; d >= 0; d-- {
				sh, seg := doms.Shard(d), segZ[d]
				cl.Engine(d).At(t, func() { e15Chain(sh, seg, noop) })
				t = cl.Run()
			}
			return t
		}

		var haloT, reduceT, now sim.Time
		for r := 0; r < rounds; r++ {
			h := halo(now)
			haloT += h - now
			rdone := reduceZ(chains(chains(h, ringsX), ringsY))
			reduceT += rdone - h
			clock.RunUntil(rdone)
			grp.Transition(n, machine.PowerIdle, machine.PowerBusy)
			grp.AddFlops(float64(n) * e15Kernel.Flops)
			now = rdone + compute
			clock.RunUntil(now)
			grp.Transition(n, machine.PowerBusy, machine.PowerIdle)
		}
		finish := now
		rec.Charge("fabric", doms.EnergyJoules(finish))
		run.Close()

		ks := doms.KernelStats()
		kexec += ks.Agg.Executed
		kwin += ks.Windows
		kcross += ks.CrossEvents
		kwide += ks.WideWindows
		for _, ds := range ks.PerDomain {
			kblocked += ds.BlockedWindows
		}

		perRound := finish / sim.Time(rounds)
		if base == 0 {
			base = perRound
		}
		tab.AddRow(cfg.energyRow(
			[]any{tor.Name(), n, sys.PeakGFlops() / 1000,
				float64(perRound) / float64(sim.Millisecond),
				(haloT / sim.Time(rounds)).Micros(),
				(reduceT / sim.Time(rounds)).Micros(),
				float64(base) / float64(perRound)},
			rec.Joules(), rec.GFlopsPerWatt())...)
	}
	e15Notes(tab, cfg)
	if cfg.domains() == 1 {
		return tab, nil // the kernel counters below describe K>1 runs only
	}
	// Machine-readable kernel counters for the bench harness; absent
	// from the rendered table so the text output is the same at every K.
	tab.SetSummary("domains", float64(cfg.domains()))
	tab.SetSummary("kernel_windows", float64(kwin))
	tab.SetSummary("kernel_executed", float64(kexec))
	tab.SetSummary("kernel_blocked_windows", float64(kblocked))
	tab.SetSummary("kernel_cross_events", float64(kcross))
	if mw := cfg.maxWindow(); mw > 1 {
		tab.SetSummary("kernel_max_window", float64(mw))
		tab.SetSummary("kernel_wide_windows", float64(kwide))
	}
	return tab, nil
}

func init() {
	register(Experiment{
		ID:       "E15",
		Title:    "Weak scaling to 100k boosters (flow-level fabric)",
		PaperRef: "slides 9, 18 (scalability classes, positioning)",
		Run:      runE15,
	})
}
