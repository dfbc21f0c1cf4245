package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/deep"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// e15Points names the sweep points of E15 by node count, in the order
// Runner.Progress announces them.
var e15Points = []string{"1000", "4096", "15625", "64000", "103823"}

// weakscale is the weakscale_k2 workload: the E15 weak-scaling sweep
// on the two-domain parallel kernel, rendered as a text table. E15 has
// no random input, so the seed only reaches the layer probes.
type weakscale struct {
	seed    uint64
	golden  []byte
	out     bytes.Buffer
	summary map[string]float64 // kernel counters of the first K=2 op
}

const weakscaleWarmUps = 1

func (w *weakscale) setUp() error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if w.golden, err = os.ReadFile(filepath.Join(root, "deep", "testdata", "E15.golden")); err != nil {
		return err
	}
	w.summary = nil
	for i := 0; i < weakscaleWarmUps; i++ {
		if err := w.op(nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *weakscale) tearDown() {}

func (w *weakscale) op(t *tracer) error { return w.run(2, t) }

// run executes E15 on `domains` domain engines, renders the table and
// checks it byte for byte against the repo's golden file; at K=2 the
// kernel counters must also repeat exactly. With a tracer, the sweep
// points become spans cut at the Runner's Progress labels: a point's
// span runs from its label to the next one, so it holds that point's
// rounds plus the fabric build of the next point (the first build falls
// in expt.e15_prelude) — as fine as the split gets from outside.
func (w *weakscale) run(domains int, t *tracer) error {
	r := &deep.Runner{Domains: domains}
	root := t.open("op", -1)
	cur := t.open("expt.e15_prelude", root)
	if t != nil {
		next := 0
		r.Progress = func(string) {
			t.end(cur)
			name := "expt.e15_extra_point"
			if next < len(e15Points) {
				name = "expt.e15_point_" + e15Points[next]
			}
			next++
			cur = t.open(name, root)
		}
	}
	rep, err := r.Run(context.Background(), "E15")
	t.shut(cur)
	if err != nil {
		return err
	}
	cur = t.open("deep.table_render", root)
	w.out.Reset()
	err = deep.TableSink{}.Write(&w.out, rep)
	t.shut(cur)
	t.shut(root)
	if err != nil {
		return err
	}
	if !bytes.Equal(w.out.Bytes(), w.golden) {
		return fmt.Errorf("E15 table at K=%d differs from deep/testdata/E15.golden", domains)
	}
	if domains == 2 {
		sum := rep.Results[0].Table.Summary
		if w.summary == nil {
			w.summary = maps.Clone(sum)
		} else if !maps.Equal(sum, w.summary) {
			return fmt.Errorf("E15 kernel counters changed between ops: %v then %v", w.summary, sum)
		}
	}
	return nil
}

func (w *weakscale) layers(b *tracedBlock, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	dur := b.t.durations()
	for _, p := range e15Points {
		m["expt.e15_point_"+p+"_ms"] = median(b.t.perOp(dur, "expt.e15_point_"+p))
	}

	// Sequential E15: the base of the K=2 speed-up.
	var k1 []float64
	for start := time.Now(); time.Since(start) < budget*3/4; {
		t0 := time.Now()
		if err := w.run(1, nil); err != nil {
			return nil, err
		}
		k1 = append(k1, float64(time.Since(t0))/1e6)
	}
	m["expt.e15_k1_ms_p50"] = median(k1)
	m["cluster.speedup_k2"] = median(k1) / b.plainP50
	m["cluster.parallel_eff"] = m["cluster.speedup_k2"] / float64(min(2, runtime.GOMAXPROCS(0)))

	s := w.summary
	m["cluster.windows"] = s["kernel_windows"]
	m["cluster.blocked_windows"] = s["kernel_blocked_windows"]
	m["cluster.blocked_frac"] = s["kernel_blocked_windows"] / (s["kernel_windows"] * s["domains"])
	m["cluster.cross_events"] = s["kernel_cross_events"]

	m["topology.route_ns"] = probeRoute(w.seed)
	m["machine.build_47_ms"] = probeBuild47(w.seed)
	m["fabric.flow_send_ns"] = probeFlowSend(w.seed)
	return m, nil
}

// probeRoute times Torus3D.Route over seeded node pairs on the 47^3
// torus, E15's largest point.
func probeRoute(seed uint64) float64 {
	const n = 300_000
	tor := topology.NewTorus3D(47, 47, 47)
	r := rng.New(seed)
	pairs := make([][2]topology.NodeID, n)
	for i := range pairs {
		pairs[i] = [2]topology.NodeID{topology.NodeID(r.Intn(tor.Nodes())), topology.NodeID(r.Intn(tor.Nodes()))}
	}
	hops := 0
	t0 := time.Now()
	for _, p := range pairs {
		hops += len(tor.Route(p[0], p[1]))
	}
	ns := float64(time.Since(t0)) / n
	if hops == 0 {
		return 0 // unreachable; keeps the loop's result live
	}
	return ns
}

// probeBuild47 times building the two-domain 47^3 flow fabric.
func probeBuild47(seed uint64) float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		machine.BoosterFabricPar(47, 47, 47, 2, fabric.FidelityFlow, seed)
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}

// probeFlowSend times Network.Send on the flow path of a 16^3 torus
// that is drained every 1024 messages, completion event included.
func probeFlowSend(seed uint64) float64 {
	const n = 200_000
	eng := sim.New()
	net, tor := machine.BoosterFabric(eng, 16, 16, 16, fabric.FidelityFlow, seed)
	r := rng.New(seed)
	pairs := make([][2]topology.NodeID, n)
	for i := range pairs {
		pairs[i] = [2]topology.NodeID{topology.NodeID(r.Intn(tor.Nodes())), topology.NodeID(r.Intn(tor.Nodes()))}
	}
	done := func(sim.Time, error) {}
	t0 := time.Now()
	for i, p := range pairs {
		net.Send(p[0], p[1], 2048, done)
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
	return float64(time.Since(t0)) / n
}
