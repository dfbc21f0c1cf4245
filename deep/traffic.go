package deep

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

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
	// flight per synchronization window. Under 1 ps or past sim.Time is an error.
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
	window, err := trafficWindow(windowMS)
	if err != nil {
		return nil, err
	}
	x, y, z := m.torusX, m.torusY, m.torusZ
	if x == 0 {
		x, y, z = cbp.TorusShape(m.boosterNodes)
	}
	nodes := x * y * z
	fid := fabric.Fidelity(m.fidelity)

	res := &Result{Workload: w.Name()}
	if nodes != m.boosterNodes {
		res.Notes = append(res.Notes,
			fmt.Sprintf("booster torus rounded up to %dx%dx%d = %d nodes", x, y, z, nodes))
	}

	doms, _ := machine.BoosterFabricPar(x, y, z, m.Domains(), fid, m.seed)
	if mw := m.MaxWindow(); mw > 1 {
		doms.SetMaxWindow(mw)
	}
	if m.energy {
		doms.SetEnergyModel(fabric.ExtollEnergy)
	}
	// The traffic pattern depends only on the run seed, never on the
	// kernel: the same (start, src, dst) list is fed, send by send, to
	// the source nodes' shards under any domain count.
	var arrived atomic.Int64 // completions run on either end's engine
	deliver := func(_ sim.Time, err error) {
		if err == nil {
			arrived.Add(1)
		}
	}
	inj := make([]injector, doms.Domains())
	for i := range inj {
		inj[i] = injector{net: doms.Shard(i), size: size, done: deliver,
			times: make([]sim.Time, 0, count/len(inj)), ends: make([][2]topology.NodeID, 0, count/len(inj))}
	}
	r := rng.New(env.Seed)
	for range count {
		start := sim.Time(r.Intn(int(window)))
		src, dst := topology.NodeID(r.Intn(nodes)), topology.NodeID(r.Intn(nodes))
		in := &inj[doms.Owner(src)]
		in.times = append(in.times, start)
		in.ends = append(in.ends, [2]topology.NodeID{src, dst})
	}
	for i := range inj {
		inj[i].net.Eng.Feed(inj[i].times, &inj[i])
	}
	finish := doms.Run()
	st := doms.Stats()
	res.Kernel = clusterKernelStats(doms.KernelStats())

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
	done := int(arrived.Load())
	res.Verified = done == count && st.BytesDelivered == uint64(count*size)
	if !res.Verified {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d messages undelivered", count-done, count))
	}
	return res, nil
}

// injector is one shard's sends; Feed hands it each index when due.
type injector struct {
	net   *fabric.Network
	times []sim.Time
	ends  [][2]topology.NodeID // (src, dst) per send
	size  int
	done  func(sim.Time, error)
}

func (in *injector) OnEvent(_ sim.Time, i, _ int64) {
	in.net.Send(in.ends[i][0], in.ends[i][1], in.size, in.done)
}

// trafficWindow is ms as virtual time; under 1 ps, overflow or NaN is an error.
func trafficWindow(ms float64) (sim.Time, error) {
	if ps := ms * float64(sim.Millisecond); ps >= 1 && ps < math.MaxInt64 {
		return sim.Time(ps), nil
	}
	return 0, fmt.Errorf("deep: traffic window %v ms outside [1 ps, %v]", ms, sim.Time(math.MaxInt64))
}
