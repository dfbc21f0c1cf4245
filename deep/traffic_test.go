package deep_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
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

// TestTorusTrafficPinned holds traffic outcomes to SHA-256 digests of
// their Result JSON, captured at the commit before injections were fed
// (sim.Engine.Feed) instead of queued as closures. Feeding keeps every
// modelled byte; only the event free list's hit rate moves, so
// pool_hit_rate is zeroed before hashing.
func TestTorusTrafficPinned(t *testing.T) {
	contended := deep.TorusTraffic{Messages: 4000, Bytes: 64 << 10, WindowMS: 0.05}
	small := []deep.Option{deep.WithBoosterTorus(8, 8, 8), deep.WithSeed(7)}
	for _, c := range []struct {
		name string
		w    deep.TorusTraffic
		opts []deep.Option
		pin  string
	}{
		{"16^3 packet K=1", deep.TorusTraffic{Messages: 20000, Bytes: 4096, WindowMS: 2},
			[]deep.Option{deep.WithBoosterTorus(16, 16, 16), deep.WithFidelity(deep.Packet)},
			"489302652ed3f6c29d7ef3e7b524f3c686aee0e714c33d473f90cea8a9c03339"},
		{"8^3 packet K=1", contended, append(small, deep.WithFidelity(deep.Packet)),
			"fb938bfcd965553f4f02f2691d2576b9d1b121481850ebd133755ae414a4cecd"},
		{"8^3 packet K=2", contended, append(small, deep.WithFidelity(deep.Packet), deep.WithDomains(2)),
			"6d08a16a7cd0937a0cbcfa38fd0fc4d0f568986d79b1f9cc06dac5becdd933e3"},
		{"8^3 flow K=1", contended, append(small, deep.WithFidelity(deep.Flow)),
			"3bc9991df9cd74c341bd471a6f76cfcf87d947f57fe56a647092d8f5baa57bc1"},
		{"8^3 flow K=2", contended, append(small, deep.WithFidelity(deep.Flow), deep.WithDomains(2)),
			"89f6c805899c50f0328ad506c43b965239ba2f3664680031ec9312c0ab19eaf7"},
		{"6^3 K=3", deep.TorusTraffic{Messages: 1000},
			[]deep.Option{deep.WithBoosterTorus(6, 6, 6), deep.WithDomains(3), deep.WithSeed(3)},
			"43a9a370d1aac8143270f2a06c345fcf882ce43ba10dc94e3f739de86e98b1a2"},
	} {
		res := runTraffic(t, c.w, c.opts...)
		if !res.Verified {
			t.Errorf("%s: not verified: %v", c.name, res.Notes)
		}
		res.Kernel.PoolHitRate = 0
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != c.pin {
			t.Errorf("%s: result %x, pinned %s:\n%s", c.name, sum, c.pin, b)
		}
	}
}

// TestTorusTrafficWindowRejected: a window that rounds below a
// picosecond or overflows sim.Time is an error, not a panic.
func TestTorusTrafficWindowRejected(t *testing.T) {
	m, err := deep.NewMachine(deep.WithBoosterTorus(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []float64{1e-10, 1e10, math.NaN(), math.Inf(1)} {
		if _, err := deep.Run(context.Background(), m.NewEnv(), deep.TorusTraffic{Messages: 4, WindowMS: ms}); err == nil {
			t.Errorf("window %v ms accepted", ms)
		}
	}
}

// TestTorusTrafficAllocationBudget is the tier-1 budget on the packet
// path: the bench's torus_packet op (20 000 messages on a 16^3 torus)
// on a warm process. With every link a sim.Resource and a fresh message
// and route per Send it took 138 640 mallocs and 12.6 MiB, and with two
// closures per message 40 727 and 5.7 MiB. Fed injections and one
// completion callback leave per-run set-up only: 635 mallocs and
// 1.27 MiB, budgeted at 1.25x.
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
	if mallocs > 800 || bytes > 1625<<10 {
		t.Fatalf("second torus run: %d mallocs, %.2f MiB; budget 800 mallocs, 1.59 MiB", mallocs, float64(bytes)/(1<<20))
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
