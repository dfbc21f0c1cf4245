package expt

import (
	"context"
	"runtime"
	"testing"
)

// TestE15AllocationBudget holds the flow path to its allocation
// budget: one full E15 sweep on two domains — 1.13 M halo messages and
// 188 k reduction hops — may allocate at most 160 MiB in 35 000
// objects. It cost 397 MiB in 5.30 M when every message took an
// injection closure, a pending-flow table slot and a route slice, and
// 167 MiB in 30 500 while every fabric built a table of link resources
// no flow ever used. The first run warms nothing the second could reuse
// (every point builds its own engines and fabric); it only keeps
// one-time runtime set-up out of the measured delta.
func TestE15AllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a full 100k-node sweep measured with the plain allocator; skipped under -short and -race")
	}
	e, _ := Get("E15")
	run := func() {
		if _, err := e.Run(context.Background(), &Config{Scale: 1, Domains: 2}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("E15 at K=2: %.1f MiB in %d allocations", mib, mallocs)
	if mib > 160 || mallocs > 35_000 {
		t.Errorf("E15 at K=2 allocated %.1f MiB in %d objects, budget 160 MiB in 35 000", mib, mallocs)
	}
}
