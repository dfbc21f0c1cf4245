package ompss_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/ompss"
	"repro/internal/rng"
	"repro/internal/sim"
)

func chainGraph(n int, cost sim.Time) *ompss.GraphBuilder {
	g := ompss.NewGraphBuilder()
	region := new(int)
	for i := 0; i < n; i++ {
		g.Add("step", ompss.Deps{InOut: []any{region}, Cost: cost})
	}
	return g
}

func independentGraph(n int, cost sim.Time) *ompss.GraphBuilder {
	g := ompss.NewGraphBuilder()
	for i := 0; i < n; i++ {
		g.Add("free", ompss.Deps{Cost: cost})
	}
	return g
}

// orders is the number of seeded random topological orders the
// ordering tests draw per graph.
const orders = 100

// positions returns, for each of `orders` seeded random topological
// orders of g, every task's position in it.
func positions(g *ompss.GraphBuilder) [][]int {
	out := make([][]int, orders)
	for seed := range out {
		order := g.RandomOrder(rng.New(uint64(seed) + 1))
		pos := make([]int, g.Len())
		for i, t := range order {
			pos[t] = i
		}
		out[seed] = pos
	}
	return out
}

func TestGraphBuilderDeps(t *testing.T) {
	g := ompss.NewGraphBuilder()
	a, b := new(int), new(int)
	w := g.Add("w", ompss.Deps{Out: []any{a}})
	r1 := g.Add("r1", ompss.Deps{In: []any{a}})
	r2 := g.Add("r2", ompss.Deps{In: []any{a}})
	w2 := g.Add("w2", ompss.Deps{Out: []any{a}, In: []any{b}})
	if g.Pred[w] != 0 || g.Pred[r1] != 1 || g.Pred[r2] != 1 {
		t.Fatalf("pred counts %v", g.Pred)
	}
	// w2 depends on w (WAW) and both readers (WAR).
	if g.Pred[w2] != 3 {
		t.Fatalf("w2 pred = %d, want 3", g.Pred[w2])
	}
	if g.Edges() != 5 {
		t.Fatalf("edges = %d, want 5", g.Edges())
	}
	if err := checkAcyclic(g); err != nil {
		t.Fatal(err)
	}
}

func TestSingleTaskRuns(t *testing.T) {
	g := ompss.NewGraphBuilder()
	g.Add("t", ompss.Deps{Cost: sim.Microsecond})
	if order := g.RandomOrder(rng.New(1)); !slices.Equal(order, []int{0}) {
		t.Fatalf("order = %v", order)
	}
	if s := g.Schedule(2); s.Start[0] != 0 || s.Worker[0] != 0 || s.Makespan != sim.Microsecond {
		t.Fatalf("schedule %+v", s)
	}
}

// TestRAWDependence: readers of a region wait for its writer.
func TestRAWDependence(t *testing.T) {
	g := ompss.NewGraphBuilder()
	region := new(int)
	w := g.Add("writer", ompss.Deps{Out: []any{region}})
	r1 := g.Add("reader1", ompss.Deps{In: []any{region}})
	r2 := g.Add("reader2", ompss.Deps{In: []any{region}})
	for _, pos := range positions(g) {
		if pos[w] > pos[r1] || pos[w] > pos[r2] {
			t.Fatalf("positions %v, want writer first", pos)
		}
	}
}

// TestWARDependence: a writer after readers waits for all of them.
func TestWARDependence(t *testing.T) {
	g := ompss.NewGraphBuilder()
	region := new(int)
	g.Add("w0", ompss.Deps{Out: []any{region}})
	var readers []int
	for i := 0; i < 3; i++ {
		readers = append(readers, g.Add("r", ompss.Deps{In: []any{region}}))
	}
	w1 := g.Add("w1", ompss.Deps{Out: []any{region}})
	for _, pos := range positions(g) {
		for _, r := range readers {
			if pos[w1] < pos[r] {
				t.Fatalf("positions %v: writer ran before reader %d", pos, r)
			}
		}
	}
}

// TestWAWSerialises: overwriting tasks on one region run in submission
// order, so the last writer's value survives.
func TestWAWSerialises(t *testing.T) {
	g := ompss.NewGraphBuilder()
	region := new(int)
	const n = 50
	for i := 0; i < n; i++ {
		g.Add("w", ompss.Deps{Out: []any{region}})
	}
	for seed := uint64(1); seed <= orders; seed++ {
		val := -1
		for _, task := range g.RandomOrder(rng.New(seed)) {
			if task < val {
				t.Fatalf("seed %d: writer %d ran after writer %d", seed, task, val)
			}
			val = task
		}
		if val != n-1 {
			t.Fatalf("seed %d: value %d, want the last writer's %d", seed, val, n-1)
		}
	}
}

func TestInOutChainsAreSequential(t *testing.T) {
	g := chainGraph(20, sim.Microsecond)
	want := make([]int, 20)
	for i := range want {
		want[i] = i
	}
	for seed := uint64(1); seed <= orders; seed++ {
		if order := g.RandomOrder(rng.New(seed)); !slices.Equal(order, want) {
			t.Fatalf("seed %d: chain order %v", seed, order)
		}
	}
}

// TestIndependentTasksRunConcurrently: with a lane each, independent
// tasks all start at time zero on distinct workers.
func TestIndependentTasksRunConcurrently(t *testing.T) {
	s := independentGraph(4, sim.Microsecond).Schedule(4)
	lanes := map[int]bool{}
	for i, start := range s.Start {
		if start != 0 {
			t.Fatalf("task %d starts at %v", i, start)
		}
		lanes[s.Worker[i]] = true
	}
	if len(lanes) != 4 || s.Makespan != sim.Microsecond {
		t.Fatalf("lanes %v, makespan %v", lanes, s.Makespan)
	}
}

func TestStats(t *testing.T) {
	g := ompss.NewGraphBuilder()
	region := new(int)
	g.Add("a", ompss.Deps{Out: []any{region}, Cost: sim.Microsecond})
	g.Add("b", ompss.Deps{In: []any{region}, Cost: sim.Microsecond})
	if g.Len() != 2 || g.Edges() != 1 || !slices.Equal(g.Names, []string{"a", "b"}) {
		t.Fatalf("len %d, edges %d, names %v", g.Len(), g.Edges(), g.Names)
	}
	if s := g.Schedule(2); s.Makespan != 2*sim.Microsecond || s.MaxReady != 1 {
		t.Fatalf("schedule %+v", s)
	}
}

// TestPrioritySchedulerAffectsOrder: one worker runs the ready tasks
// highest priority first, ties in submission order.
func TestPrioritySchedulerAffectsOrder(t *testing.T) {
	g := ompss.NewGraphBuilder()
	for _, p := range []int{0, 1, 2, 3, 3} {
		g.Add("t", ompss.Deps{Priority: p, Cost: sim.Microsecond})
	}
	s := g.Schedule(1)
	for i, task := range []int{3, 4, 2, 1, 0} {
		if want := sim.Time(i) * sim.Microsecond; s.Start[task] != want {
			t.Fatalf("task %d starts at %v, want %v", task, s.Start[task], want)
		}
	}
}

// TestRandomGraphSerialisability: executing a random task graph, whose
// tasks read and write shared cells, in each of `orders` seeded random
// topological orders gives the sequential result. This is the core
// OmpSs correctness property ("think sequential").
func TestRandomGraphSerialisability(t *testing.T) {
	reordered := 0
	check := func(seed uint64) bool {
		r := rng.New(seed)
		const cells = 6
		const ntasks = 60
		type op struct {
			in, out []int
		}
		ops := make([]op, ntasks)
		regions := make([]any, cells)
		for c := range regions {
			regions[c] = new(int)
		}
		g := ompss.NewGraphBuilder()
		for i := range ops {
			var o op
			var d ompss.Deps
			for c := 0; c < cells; c++ {
				switch r.Intn(4) {
				case 0:
					o.in = append(o.in, c)
					d.In = append(d.In, regions[c])
				case 1:
					o.out = append(o.out, c)
					d.InOut = append(d.InOut, regions[c])
				}
			}
			ops[i] = o
			g.Add("op", d)
		}
		apply := func(state []int64, i int) {
			sum := int64(i + 1)
			for _, c := range ops[i].in {
				sum += state[c]
			}
			for _, c := range ops[i].out {
				state[c] = state[c]*3 + sum
			}
		}
		ref := make([]int64, cells)
		for i := range ops {
			apply(ref, i)
		}
		for k := uint64(0); k < orders; k++ {
			order := g.RandomOrder(rng.New(seed ^ k))
			if !slices.IsSorted(order) {
				reordered++
			}
			got := make([]int64, cells)
			for _, i := range order {
				apply(got, i)
			}
			if !slices.Equal(got, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if reordered == 0 {
		t.Fatal("no order departed from submission order; the check proved nothing")
	}
}

func TestMaxReadyTracksParallelism(t *testing.T) {
	g := ompss.NewGraphBuilder()
	g.Add("gate", ompss.Deps{Cost: sim.Microsecond})
	for i := 0; i < 10; i++ {
		g.Add("free", ompss.Deps{Cost: sim.Microsecond})
	}
	if s := g.Schedule(1); s.MaxReady < 10 {
		t.Fatalf("MaxReady = %d, want >= 10", s.MaxReady)
	}
	if s := chainGraph(10, sim.Microsecond).Schedule(4); s.MaxReady != 1 {
		t.Fatalf("chain MaxReady = %d, want 1", s.MaxReady)
	}
}

func TestCostAndTimePlumbing(t *testing.T) {
	g := ompss.NewGraphBuilder()
	g.Add("k", ompss.Deps{Cost: 5 * sim.Microsecond, Priority: 3})
	if g.Costs[0] != 5*sim.Microsecond || g.Prio[0] != 3 || g.Makespan(1) != 5*sim.Microsecond {
		t.Fatalf("recorded cost %v, priority %d, makespan %v", g.Costs[0], g.Prio[0], g.Makespan(1))
	}
}

func TestCriticalPathChain(t *testing.T) {
	g := chainGraph(10, sim.Microsecond)
	if got := g.CriticalPath(); got != 10*sim.Microsecond {
		t.Fatalf("chain critical path %v", got)
	}
	if got := totalWork(g); got != 10*sim.Microsecond {
		t.Fatalf("total work %v", got)
	}
}

func TestCriticalPathIndependent(t *testing.T) {
	g := independentGraph(10, sim.Microsecond)
	if got := g.CriticalPath(); got != sim.Microsecond {
		t.Fatalf("independent critical path %v", got)
	}
}

func TestMakespanChainDoesNotSpeedUp(t *testing.T) {
	g := chainGraph(20, sim.Microsecond)
	if m1, m8 := g.Makespan(1), g.Makespan(8); m1 != m8 {
		t.Fatalf("chain sped up: %v vs %v", m1, m8)
	}
}

func TestMakespanIndependentScalesLinearly(t *testing.T) {
	g := independentGraph(64, sim.Microsecond)
	m1 := g.Makespan(1)
	m8 := g.Makespan(8)
	if m1 != 64*sim.Microsecond || m8 != 8*sim.Microsecond {
		t.Fatalf("makespans %v %v", m1, m8)
	}
}

// grahamBounds reports whether g's makespans respect the work and
// critical-path bounds, max(CP, W/w) <= T(w) <= W/w + CP (Graham), with
// T(1) = W exactly.
func grahamBounds(g *ompss.GraphBuilder) error {
	if err := checkAcyclic(g); err != nil {
		return err
	}
	cp := g.CriticalPath()
	work := totalWork(g)
	for _, w := range []int{1, 2, 4, 16} {
		m := g.Makespan(w)
		switch lower := work / sim.Time(w); {
		case m < cp:
			return fmt.Errorf("%d workers: makespan %v beats the critical path %v", w, m, cp)
		case w == 1 && m != work:
			return fmt.Errorf("one worker: makespan %v, work %v", m, work)
		case m < lower:
			return fmt.Errorf("%d workers: makespan %v beats the work bound %v", w, m, lower)
		case m > lower+cp:
			return fmt.Errorf("%d workers: makespan %v above Graham's bound %v", w, m, lower+cp)
		}
	}
	return nil
}

func TestMakespanBounds(t *testing.T) {
	// Random graphs.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		g := ompss.NewGraphBuilder()
		regions := make([]any, 5)
		for i := range regions {
			regions[i] = new(int)
		}
		for i := 0; i < 40; i++ {
			var d ompss.Deps
			d.Cost = sim.Time(r.Intn(100)+1) * sim.Nanosecond
			for _, reg := range regions {
				switch r.Intn(5) {
				case 0:
					d.In = append(d.In, reg)
				case 1:
					d.InOut = append(d.InOut, reg)
				}
			}
			g.Add("t", d)
		}
		return grahamBounds(g) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// The tiled Cholesky graphs the experiments and the workload run.
	const ts = 4
	for nt := 1; nt <= 16; nt++ {
		c, err := apps.NewCholesky(linalg.NewMatrix(nt*ts, nt*ts), ts)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]machine.NodeModel{"xeon": machine.Xeon, "knc": machine.KNC} {
			if err := grahamBounds(c.Graph(m)); err != nil {
				t.Errorf("cholesky NT=%d on %s: %v", nt, name, err)
			}
		}
	}
}

func TestMakespanMoreWorkersNeverSlower(t *testing.T) {
	r := rng.New(99)
	g := ompss.NewGraphBuilder()
	regions := make([]any, 4)
	for i := range regions {
		regions[i] = new(int)
	}
	for i := 0; i < 60; i++ {
		var d ompss.Deps
		d.Cost = sim.Time(r.Intn(50)+1) * sim.Nanosecond
		if r.Bool(0.5) {
			d.In = append(d.In, regions[r.Intn(4)])
		}
		if r.Bool(0.4) {
			d.InOut = append(d.InOut, regions[r.Intn(4)])
		}
		g.Add("t", d)
	}
	prev := g.Makespan(1)
	for _, w := range []int{2, 4, 8, 32} {
		m := g.Makespan(w)
		// List scheduling anomalies can make more workers slower in
		// theory; with priority=0 FIFO order on these graphs it stays
		// monotone. Allow a small tolerance.
		if float64(m) > float64(prev)*1.05 {
			t.Fatalf("makespan rose from %v to %v at %d workers", prev, m, w)
		}
		prev = m
	}
}

func TestMakespanPanicsWithoutWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Makespan(0) accepted")
		}
	}()
	independentGraph(3, sim.Microsecond).Makespan(0)
}

func ExampleGraphBuilder() {
	g := ompss.NewGraphBuilder()
	a, b := new(int), new(int)
	g.Add("produce", ompss.Deps{Out: []any{a}, Cost: 2 * sim.Microsecond})
	g.Add("transform", ompss.Deps{In: []any{a}, Out: []any{b}, Cost: 3 * sim.Microsecond})
	g.Add("log", ompss.Deps{In: []any{a}, Cost: sim.Microsecond})
	fmt.Println(g.Edges(), g.CriticalPath(), g.Makespan(1), g.Makespan(2))
	// Output: 2 5.000us 6.000us 5.000us
}

// checkAcyclic returns an error if the graph has a cycle. It never
// should: dependences only point backwards in submission order.
func checkAcyclic(g *ompss.GraphBuilder) error {
	for i, succ := range g.Succ {
		for _, s := range succ {
			if s <= i {
				return fmt.Errorf("edge %d -> %d violates submission order", i, s)
			}
		}
	}
	return nil
}

// totalWork returns the sum of task costs.
func totalWork(g *ompss.GraphBuilder) sim.Time {
	var t sim.Time
	for _, c := range g.Costs {
		t += c
	}
	return t
}
