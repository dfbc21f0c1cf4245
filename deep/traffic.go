package deep

import (
	"context"
	"fmt"

	"repro/internal/cbp"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TorusTraffic drives randomized point-to-point traffic over the
// booster EXTOLL torus at the machine's fabric fidelity. It is the
// SDK's window into the simulation kernel itself: on a machine built
// WithDomains(k > 1) the torus is split into k z-plane slabs, each
// simulated by its own domain engine under conservative window
// synchronization, and Result.Kernel reports the per-domain scheduler
// counters (executed events, blocked windows) next to the coherent
// machine-wide aggregate. The default machine (K=1) is the one-shard
// case of the same path: one engine, one unpartitioned torus,
// byte-identical to previous releases.
//
// Results are deterministic per (seed, domain count): the partitioned
// kernel's output is byte-stable for a fixed k, not across k —
// boundary-crossing messages travel as single zero-load-latency
// events, exact only on uncontended routes.
type TorusTraffic struct {
	// Messages is the number of point-to-point sends (default 4096).
	Messages int
	// Bytes is the payload per message (default 2048).
	Bytes int
	// WindowMS is the injection window in virtual milliseconds over
	// which sends are uniformly scattered (default 1.0). Shorter
	// windows mean more contention and more cross-domain traffic in
	// flight per synchronization window.
	WindowMS float64
}

// Name implements Workload.
func (TorusTraffic) Name() string { return "traffic" }

// Run implements Workload.
func (w TorusTraffic) Run(ctx context.Context, env *Env) (*Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := env.Machine
	count := positive(w.Messages, 4096)
	size := positive(w.Bytes, 2048)
	windowMS := w.WindowMS
	if windowMS <= 0 {
		windowMS = 1
	}
	window := sim.Time(windowMS * float64(sim.Millisecond))
	x, y, z := m.torusX, m.torusY, m.torusZ
	if x == 0 {
		x, y, z = cbp.TorusShape(m.boosterNodes)
	}
	nodes := x * y * z
	fid := fabric.Fidelity(m.fidelity)

	// The traffic pattern depends only on the run seed, never on the
	// kernel: the same (start, src, dst) list is injected under any
	// domain count.
	r := rng.New(env.Seed)
	type item struct {
		start    sim.Time
		src, dst topology.NodeID
	}
	items := make([]item, count)
	for i := range items {
		items[i] = item{
			start: sim.Time(r.Intn(int(window))),
			src:   topology.NodeID(r.Intn(nodes)),
			dst:   topology.NodeID(r.Intn(nodes)),
		}
	}

	res := &Result{Workload: w.Name()}
	if nodes != m.boosterNodes {
		res.Notes = append(res.Notes,
			fmt.Sprintf("booster torus rounded up to %dx%dx%d = %d nodes", x, y, z, nodes))
	}
	delivered := make([]sim.Time, count)

	doms, _ := machine.BoosterFabricPar(x, y, z, m.Domains(), fid, m.seed)
	if mw := m.MaxWindow(); mw > 1 {
		doms.SetMaxWindow(mw)
	}
	if m.energy {
		doms.SetEnergyModel(fabric.ExtollEnergy)
	}
	for i, it := range items {
		i, it := i, it
		sh := doms.ShardOf(it.src)
		sh.Eng.At(it.start, func() {
			sh.Send(it.src, it.dst, size, func(at sim.Time, err error) {
				if err == nil {
					delivered[i] = at
				}
			})
		})
	}
	finish := doms.Run()
	st := doms.Stats()
	res.Kernel = clusterKernelStats(doms.KernelStats())

	done := 0
	for _, at := range delivered {
		if at > 0 {
			done++
		}
	}
	res.Summary = fmt.Sprintf("msgs=%d bytes=%d torus=%dx%dx%d fidelity=%v domains=%d",
		count, size, x, y, z, fid, doms.Domains())
	res.ModelTime = ModelTime(finish.Seconds())
	res.addMetric("messages", float64(st.Messages), "")
	res.addMetric("delivered_bytes", float64(st.BytesDelivered), "B")
	res.addMetric("cross_messages", float64(st.CrossMessages), "")
	res.addMetric("max_link_util", doms.MaxLinkUtilisation(), "")
	if m.energy {
		joules := doms.EnergyJoules(finish)
		res.Energy = &EnergyReport{
			Joules:  joules,
			Charges: []Metric{{Name: "fabric", Value: joules, Unit: "J"}},
		}
		res.addMetric("joules", joules, "J")
	}
	// Verification for a traffic run: every injected message was
	// delivered, and the fabric's own ledger agrees.
	res.Verified = done == count && st.BytesDelivered == uint64(count*size)
	if !res.Verified {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d messages undelivered", count-done, count))
	}
	return res, nil
}
