package deep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/deep"
)

func runTraffic(t *testing.T, w deep.TorusTraffic, opts ...deep.Option) *deep.Result {
	t.Helper()
	m, err := deep.NewMachine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	env := m.NewEnv()
	res, err := deep.Run(context.Background(), env, w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTorusTrafficSequential(t *testing.T) {
	res := runTraffic(t, deep.TorusTraffic{Messages: 500},
		deep.WithBoosterTorus(4, 4, 4))
	if !res.Verified {
		t.Fatalf("sequential traffic not verified: %+v", res)
	}
	if res.Kernel == nil || res.Kernel.ExecutedEvents == 0 {
		t.Fatal("missing kernel counters")
	}
	if res.Kernel.Domains != 0 || len(res.Kernel.PerDomain) != 0 {
		t.Fatalf("sequential run leaked partitioned-kernel fields: %+v", res.Kernel)
	}
}

func TestTorusTrafficParallel(t *testing.T) {
	res := runTraffic(t, deep.TorusTraffic{Messages: 1000},
		deep.WithBoosterTorus(6, 6, 6), deep.WithDomains(3))
	if !res.Verified {
		t.Fatalf("partitioned traffic not verified: %+v", res)
	}
	k := res.Kernel
	if k == nil || k.Domains != 3 || len(k.PerDomain) != 3 || k.Windows == 0 {
		t.Fatalf("partitioned kernel counters incoherent: %+v", k)
	}
	var sum uint64
	for _, d := range k.PerDomain {
		sum += d.ExecutedEvents
		if d.MaxQueueDepth > k.MaxQueueDepth {
			t.Fatalf("aggregate max depth %d below domain %d's %d",
				k.MaxQueueDepth, d.Domain, d.MaxQueueDepth)
		}
	}
	if sum != k.ExecutedEvents {
		t.Fatalf("per-domain executed events sum %d != aggregate %d", sum, k.ExecutedEvents)
	}
	if k.CrossEvents == 0 {
		t.Fatal("expected cross-domain events on a 3-slab torus")
	}
}

// TestTorusTrafficStablePerK pins the determinism contract: two runs
// at the same fixed domain count produce byte-identical results —
// every field, the free-list hit rate included.
func TestTorusTrafficStablePerK(t *testing.T) {
	run := func() []byte {
		res := runTraffic(t, deep.TorusTraffic{Messages: 800},
			deep.WithBoosterTorus(5, 5, 5), deep.WithDomains(5))
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical K=5 runs diverged:\n%s\n%s", a, b)
	}
}

// TestTorusTrafficAllocationBudget is the tier-1 budget on the packet
// path: the bench's torus_packet op (20 000 messages on a 16^3 torus)
// on a warm process. With every link a sim.Resource and a fresh message
// and route per Send it took 138 640 mallocs and 12.6 MiB; what is left
// is the op's own per-message closures and per-run set-up.
func TestTorusTrafficAllocationBudget(t *testing.T) {
	m, err := deep.NewMachine(deep.WithBoosterTorus(16, 16, 16), deep.WithFidelity(deep.Packet))
	if err != nil {
		t.Fatal(err)
	}
	env := m.NewEnv()
	run := func() (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := deep.Run(context.Background(), env, deep.TorusTraffic{Messages: 20000, Bytes: 4096, WindowMS: 2})
		runtime.ReadMemStats(&after)
		if err != nil || !res.Verified {
			t.Fatalf("torus traffic: %v, verified %v", err, res != nil && res.Verified)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	run()
	mallocs, bytes := run()
	if mallocs > 45_000 || bytes > 8<<20 {
		t.Fatalf("second torus run: %d mallocs, %.2f MiB; budget 45 000 mallocs, 8 MiB", mallocs, float64(bytes)/(1<<20))
	}
	t.Logf("second torus run: %d mallocs, %.2f MiB", mallocs, float64(bytes)/(1<<20))
}

// TestRunnerDomainsE15 drives the partitioned kernel through the
// Runner: the E15 table at K=2 must be byte-identical to the
// sequential kernel's.
func TestRunnerDomainsE15(t *testing.T) {
	render := func(k int) []byte {
		r := &deep.Runner{Domains: k, MaxNodes: 5000}
		rep, err := r.Run(context.Background(), "E15")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Results[0].Table.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := render(1), render(2)
	if !bytes.Equal(seq, par) {
		t.Fatalf("Runner K=2 E15 diverges from sequential:\n--- K=1 ---\n%s\n--- K=2 ---\n%s", seq, par)
	}
}
