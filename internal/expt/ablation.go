package expt

import (
	"context"

	"repro/internal/apps"
	"repro/internal/cbp"
	"repro/internal/fabric"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Ablations: the design choices the reproduction makes explicit are
// each backed by a table showing what changes when the choice is
// flipped. They are registered alongside the paper experiments with
// A-prefixed IDs.

// A01: ready-queue policy. The Cholesky critical path benefits from
// priorities. We compare the modelled makespan of the 16x16-tile
// Cholesky under two ready-queue policies by list-scheduling the same
// graph with priorities zeroed (FIFO: submission order) and set
// (priority first).
func runA01(ctx context.Context, cfg *Config) (*stats.Table, error) {
	c, err := apps.NewCholesky(linalg.NewMatrix(512, 512), 32)
	if err != nil {
		return nil, err
	}
	withPrio := c.Graph(machine.KNC)
	// A FIFO-equivalent graph: same structure, priorities flattened.
	flat := c.Graph(machine.KNC)
	for i := range flat.Prio {
		flat.Prio[i] = 0
	}
	tab := stats.NewTable(
		"A01 Ablation: ready-queue policy on tiled Cholesky (16x16 tiles)",
		cfg.energyHeaders("workers", "priority_ms", "fifo_ms", "priority_gain")...)
	for _, w := range []int{2, 4, 8, 16, 32} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := withPrio.Makespan(w)
		f := flat.Makespan(w)
		// The priority schedule's makespan on one KNC node with w
		// cores lit; the FIFO schedule pays its longer tail in joules.
		util := float64(w) / float64(machine.KNC.Cores)
		joules := machine.KNC.Power(util) * p.Seconds()
		flops := 512.0 * 512 * 512 / 3
		tab.AddRow(cfg.energyRow(
			[]any{w, float64(p) / float64(sim.Millisecond),
				float64(f) / float64(sim.Millisecond), float64(f) / float64(p)},
			joules, gflopsPerWatt(flops, joules))...)
	}
	tab.AddNote("priorities favour critical-path potrf/trsm tasks; gain peaks at moderate worker counts")
	return tab, nil
}

// A02: booster allocation policy. Contiguous sub-torus allocation
// keeps a job's nodes close; scattered first-fit fragments it. We
// allocate half the torus under each policy with prior fragmentation
// and compare the mean pairwise hop distance of the allocation — the
// quantity halo-exchange latency scales with.
func runA02(ctx context.Context, cfg *Config) (*stats.Table, error) {
	tab := stats.NewTable(
		"A02 Ablation: contiguous vs first-fit booster allocation",
		cfg.energyHeaders("alloc_nodes", "firstfit_avg_hops", "subtorus_avg_hops", "improvement")...)
	for _, n := range []int{4, 8, 16} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ff, err := allocAvgHops(n, resource.FirstFit)
		if err != nil {
			return nil, err
		}
		ct, err := allocAvgHops(n, resource.Contiguous)
		if err != nil {
			return nil, err
		}
		// Per-byte transfer energy scales with hop count: the energy
		// of a 64 KiB all-pairs halo round at each placement's mean
		// distance — scattered allocations pay it on every exchange.
		halo := func(avgHops float64) float64 {
			pairs := float64(n * (n - 1))
			return fabric.ExtollEnergy.PerByteJ * float64(64<<10) * avgHops * pairs
		}
		tab.AddRow(cfg.energyRow([]any{n, ff, ct, ff / ct},
			halo(ff)+halo(ct), 0)...)
	}
	tab.AddNote("prior fragmentation: every 5th node busy; contiguous allocation keeps hop counts low")
	if cfg.energyOn() {
		tab.AddNote("energy: one 64 KiB all-pairs exchange under both placements — fragmentation is a per-byte energy tax")
	}
	return tab, nil
}

// allocAvgHops fragments a 6x6x6 torus pool (every 5th node taken out
// of service), allocates n nodes with the policy and returns the mean
// pairwise hop distance of the allocation.
func allocAvgHops(n int, p resource.Policy) (float64, error) {
	tor := topology.NewTorus3D(6, 6, 6)
	pool := resource.NewTorusPool(tor)
	for i := 0; i < tor.Nodes(); i += 5 {
		if err := pool.MarkDown(i); err != nil {
			return 0, err
		}
	}
	ids, err := pool.Alloc(n, p)
	if err != nil {
		return 0, err
	}
	sum, cnt := 0, 0
	for _, a := range ids {
		for _, b := range ids {
			if a != b {
				sum += topology.Hops(tor, topology.NodeID(a), topology.NodeID(b))
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0, nil
	}
	return float64(sum) / float64(cnt), nil
}

// A03: VELO eager limit. The engine switch point trades handshake
// savings for buffer copies; we sweep the limit and report the
// mid-size message latency to show the chosen 4 KiB default sits at
// the knee.
func runA03(ctx context.Context, cfg *Config) (*stats.Table, error) {
	tab := stats.NewTable(
		"A03 Ablation: VELO eager-limit sensitivity (8 KiB messages)",
		cfg.energyHeaders("eager_limit", "time_us", "engine")...)
	const size = 8 << 10
	for _, limit := range []int{512, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eng := sim.New()
		tor := topology.NewTorus3D(4, 4, 1)
		net := fabric.MustNetwork(eng, tor, fabric.Extoll, 1)
		net.SetFidelity(cfg.fidelity(fabric.FidelityPacket))
		net.SetEnergyModel(fabric.ExtollEnergy)
		p := fabric.DefaultEngines()
		p.EagerLimit = limit
		nic := fabric.NewNIC(net, 0, p)
		var at sim.Time
		nic.Transfer(3, size, func(a sim.Time, err error) { at = a })
		eng.Run()
		engine := "rma"
		if size <= limit {
			engine = "velo"
		}
		tab.AddRow(cfg.energyRow([]any{limit, at.Micros(), engine},
			net.EnergyJoules(), 0)...)
	}
	tab.AddNote("once the limit admits the message, VELO skips the rendezvous round trip")
	return tab, nil
}

// A04: gateway provisioning. The number of Booster Interface nodes
// bounds cross-fabric bandwidth; we sweep concurrent cross-traffic
// over one shared gateway and report the completion time stretch —
// the sizing argument for BI nodes.
func runA04(ctx context.Context, cfg *Config) (*stats.Table, error) {
	tab := stats.NewTable(
		"A04 Ablation: Booster Interface saturation under concurrent cross-traffic",
		cfg.energyHeaders("concurrent_msgs", "finish_ms", "per_msg_ms", "gateway_util")...)
	const size = 4 << 20
	for _, k := range []int{1, 2, 4, 8, 16} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eng := sim.New()
		cluster := fabric.MustNetwork(eng, topology.NewFatTree(4, 4, 4), fabric.InfiniBandFDR, 1)
		booster := fabric.MustNetwork(eng, topology.NewTorus3D(4, 4, 2), fabric.Extoll, 2)
		cluster.SetFidelity(cfg.fidelity(fabric.FidelityPacket))
		booster.SetFidelity(cfg.fidelity(fabric.FidelityPacket))
		cluster.SetEnergyModel(fabric.InfiniBandEnergy)
		booster.SetEnergyModel(fabric.ExtollEnergy)
		gw := cbp.NewGateway(cluster, booster, 0, 0, 1500*sim.Nanosecond, 4*fabric.GB)
		done := 0
		for i := 0; i < k; i++ {
			gw.ToBooster(topology.NodeID(i%16), topology.NodeID(i%32), size,
				func(_ sim.Time, err error) {
					if err == nil {
						done++
					}
				})
		}
		finish := eng.Run()
		ms := float64(finish) / float64(sim.Millisecond)
		tab.AddRow(cfg.energyRow([]any{k, ms, ms / float64(k), gw.Utilisation()},
			cluster.EnergyJoules()+booster.EnergyJoules(), 0)...)
	}
	tab.AddNote("one SMFU gateway serialises staging: per-message time flattens once saturated")
	return tab, nil
}

func init() {
	register(Experiment{
		ID:       "A01",
		Title:    "Ablation: ready-queue policy on Cholesky",
		PaperRef: "design choice (ompss scheduler)",
		Run:      runA01,
	})
	register(Experiment{
		ID:       "A02",
		Title:    "Ablation: contiguous vs first-fit allocation",
		PaperRef: "design choice (resource allocator)",
		Run:      runA02,
	})
	register(Experiment{
		ID:       "A03",
		Title:    "Ablation: VELO eager-limit sensitivity",
		PaperRef: "design choice (engine switch point)",
		Run:      runA03,
	})
	register(Experiment{
		ID:       "A04",
		Title:    "Ablation: Booster Interface saturation",
		PaperRef: "design choice (gateway provisioning)",
		Run:      runA04,
	})
}
