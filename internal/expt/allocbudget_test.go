package expt

import (
	"context"
	"runtime"
	"testing"
)

// TestE15AllocationBudget holds the flow path to its allocation
// budget: one full E15 sweep on two domains — 1.13 M halo messages and
// 188 k reduction hops — may allocate at most 125 MiB in 32 700
// objects, 1.25x the 100.0 MiB in 26 162 it takes with pointer-free,
// index-linked event and flow records. It cost 397 MiB in 5.30 M when
// every message took an injection closure, a pending-flow table slot
// and a route slice, 167 MiB in 30 500 while every fabric built a table
// of link resources no flow ever used, and 158 MiB in 30 483 while
// events (72 B) and flow records (48 B) were pointer-linked. The first
// run keeps one-time runtime set-up out of the measured delta; it also
// leaves event and flow pages in their pools, so the second run takes
// about 21 MiB while the pooled pages outlive the collections in
// between and up to the 100 MiB above when they do not.
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
	if mib > 125 || mallocs > 32_700 {
		t.Errorf("E15 at K=2 allocated %.1f MiB in %d objects, budget 125 MiB in 32 700", mib, mallocs)
	}
}
