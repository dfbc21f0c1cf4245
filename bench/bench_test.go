package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileArithmetic(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	// A burst of slow ops moves the mean by 10x and the fast-half mean
	// not at all.
	burst := []float64{10, 10, 10, 10, 10, 1000, 1000, 1000}
	if got := fastHalfMean(burst); got != 10 {
		t.Errorf("fastHalfMean with a slow burst = %v, want 10", got)
	}
	if got := fastHalfMean([]float64{5, 1, 4, 2, 3}); got != 2 {
		t.Errorf("fastHalfMean(1..5) = %v, want 2 (mean of 1,2,3)", got)
	}
	if got := samplesBeyond([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.5); got != 5 {
		t.Errorf("samplesBeyond the median of 11 = %d, want 5", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	// 0: root [0,100]
	// 1: child [10,30]            plain
	// 2: child [20,50]            overlaps child 1: union [10,50] = 40
	// 3: child [90,120]           sticks out of the root: clipped to [90,100] = 10
	// 4: grandchild [12,18] of 1  must not count against the root
	// 5: second root [200,260] with one child 6 covering all of it
	spans := []span{
		{parent: -1, op: 0, start: 0, end: 100},
		{parent: 0, op: 0, start: 10, end: 30},
		{parent: 0, op: 0, start: 20, end: 50},
		{parent: 0, op: 0, start: 90, end: 120},
		{parent: 1, op: 0, start: 12, end: 18},
		{parent: -1, op: 1, start: 200, end: 260},
		{parent: 5, op: 1, start: 200, end: 260},
	}
	want := []int64{50, 14, 30, 30, 6, 0, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Recording order must not matter: children listed before an
	// earlier-starting sibling give the same union.
	spans[1], spans[2] = spans[2], spans[1]
	spans[4].parent = 2
	if got := selfTimes(spans)[0]; got != 50 {
		t.Errorf("root self time with reordered children = %d, want 50", got)
	}
}

func TestTracerPerOp(t *testing.T) {
	tr := newTracer()
	for op := 0; op < 3; op++ {
		root := tr.open("op", -1)
		for i := 0; i <= op; i++ {
			tr.shut(tr.open("layer.call", root))
		}
		tr.shut(root)
	}
	if tr.ops != 3 || len(tr.each("layer.call")) != 6 {
		t.Fatalf("ops = %d, layer.call spans = %d; want 3 and 6", tr.ops, len(tr.each("layer.call")))
	}
	ones := make([]int64, len(tr.spans))
	for i := range ones {
		ones[i] = 1e6 // 1 ms each, so perOp counts spans
	}
	if got := tr.perOp(ones, "layer.call"); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("perOp = %v, want [1 2 3]", got)
	}
	var nilTracer *tracer
	nilTracer.shut(nilTracer.open("op", -1)) // must not panic

	// The trace file keeps every span of the first ops and only the op
	// root and its children afterwards.
	deep := newTracer()
	for op := 0; op < fullDetailOps+1; op++ {
		root := deep.open("op", -1)
		child := deep.open("a.child", root)
		deep.shut(deep.open("a.leaf", child))
		deep.shut(child)
		deep.shut(root)
	}
	leaves := 0
	for _, e := range deep.chromeEvents("test") {
		if e.Name == "a.leaf" {
			leaves++
		}
		if e.Ph == "X" && e.Cat == "" {
			t.Errorf("span %q has no category", e.Name)
		}
	}
	if leaves != fullDetailOps {
		t.Errorf("trace keeps %d leaf spans, want %d", leaves, fullDetailOps)
	}
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the lists
// the harness prints from in step.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, file, harness []metricDef) {
		if len(file) != len(harness) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(file), kind, len(harness))
		}
		for i, m := range file {
			check(m.Name)
			if m != harness[i] {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the harness", kind, i, m, harness[i])
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEndMetrics)
	compare("per_layer", bf.PerLayer, perLayerMetrics)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the harness default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// TestDeepdSchedule runs one op (20 rounds) against a real in-process
// server and checks the mix the server itself counted: per round 1
// miss, 8 LRU hits and 8 store hits, with the 64-entry LRU evicting on
// every insertion.
func TestDeepdSchedule(t *testing.T) {
	w := &deepdMix{seed: 7}
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	before := w.last
	if err := w.op(nil); err != nil { // op fails itself if the server's counters leave the schedule
		t.Fatal(err)
	}
	submitted := w.last.Submitted - before.Submitted
	hits := w.last.CacheHits - before.CacheHits
	storeHits := w.last.StoreHits - before.StoreHits
	misses, lruHits := submitted-hits, hits-storeHits
	if misses != deepdRounds || lruHits != 8*misses || storeHits != 8*misses {
		t.Errorf("miss:LRU:store = %d:%d:%d over %d rounds, want 1:8:8 per round", misses, lruHits, storeHits, deepdRounds)
	}
	if ev := w.last.Cache.Evictions - before.Cache.Evictions; ev != misses+storeHits {
		t.Errorf("%d evictions, want one per insertion (%d)", ev, misses+storeHits)
	}
	if w.opBytes <= 0 {
		t.Errorf("the op appended %d bytes to the store", w.opBytes)
	}
}

// TestSmokeExactCounts runs every workload's traced form briefly, twice,
// and requires the counts that claims may later rest on to be identical:
// they come from the simulation, not the host.
func TestSmokeExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				// A millisecond of budget: one plain op, one traced op, one
				// pass of every probe.
				r, err := runWorkload(w.name, 3, 0.001, true)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted < 2 {
					t.Fatalf("attempted %d, failed %d", r.attempted, r.failed)
				}
				runs[i] = r.layers
			}
			exact := 0
			for _, m := range perLayerMetrics {
				if m.Unit != "count" && m.Unit != "B" || strings.HasPrefix(m.Name, "host.") {
					continue
				}
				if runs[0][m.Name] != runs[1][m.Name] {
					t.Errorf("%s = %v then %v", m.Name, runs[0][m.Name], runs[1][m.Name])
				}
				if runs[0][m.Name] != 0 {
					exact++
				}
			}
			if exact == 0 {
				t.Error("no exact count reported")
			}
			for name := range runs[0] {
				if !isPerLayer(name) {
					t.Errorf("layers reported %q, which BENCHMARK.json does not list", name)
				}
			}
		})
	}
}

func isPerLayer(name string) bool {
	for _, m := range perLayerMetrics {
		if m.Name == name {
			return true
		}
	}
	return false
}
