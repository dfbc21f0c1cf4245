// Package ompss is the task-dataflow model that plays the role of
// OmpSs (Mercurium + Nanos++) in the DEEP software stack: tasks declare
// input/output/inout dependences on data regions, the analyser derives
// the task graph, and a list scheduler plays the graph on a worker pool
// in virtual time, "decoupling how we write (think sequential) from how
// it is executed" (paper slide 23).
//
// The pragma front-end of OmpSs is replaced by an explicit API: the
// paper's
//
//	#pragma omp task input([TS][TS]A, [TS][TS]B) inout([TS][TS]C)
//	void sgemm(float *A, float *B, float *C);
//
// becomes
//
//	g.Add("sgemm", ompss.Deps{In: []any{a, b}, InOut: []any{c}, Cost: gemmCost})
//
// Dependence semantics follow OmpSs/OpenMP: a task reading a region
// depends on the region's last writer; a task writing a region depends
// on the last writer and on every reader submitted since (serialising
// write-after-read), then becomes the new last writer.
package ompss

import (
	"container/heap"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Deps declares a task's data dependences and scheduling attributes.
type Deps struct {
	// In regions are read; Out regions are overwritten; InOut both.
	// Regions are arbitrary comparable keys — typically pointers to the
	// data blocks the task touches.
	In, Out, InOut []any
	// Priority orders ready tasks in the list schedule (higher first).
	Priority int
	// Cost is the task's modelled execution time.
	Cost sim.Time
}

func containsRegion(regs []any, reg any) bool {
	for _, r := range regs {
		if r == reg {
			return true
		}
	}
	return false
}

// GraphBuilder records a task submission sequence and reconstructs its
// dependence DAG, for analysis (critical path, work) and for modelled
// execution on w workers (Schedule, Makespan).
type GraphBuilder struct {
	lastWriter map[any]int
	readers    map[any][]int
	// Succ[i] lists successor task indices of task i.
	Succ [][]int
	// Pred counts in-degrees.
	Pred []int
	// Costs and Names mirror the submissions.
	Costs []sim.Time
	Names []string
	Prio  []int
}

// NewGraphBuilder returns an empty builder.
func NewGraphBuilder() *GraphBuilder {
	return &GraphBuilder{
		lastWriter: make(map[any]int),
		readers:    make(map[any][]int),
	}
}

// Add registers a task with dependences d and returns its index.
func (g *GraphBuilder) Add(name string, d Deps) int {
	id := len(g.Succ)
	g.Succ = append(g.Succ, nil)
	g.Pred = append(g.Pred, 0)
	g.Costs = append(g.Costs, d.Cost)
	g.Names = append(g.Names, name)
	g.Prio = append(g.Prio, d.Priority)

	seen := make(map[int]bool)
	addDep := func(pred int) {
		if pred < 0 || pred == id || seen[pred] {
			return
		}
		seen[pred] = true
		g.Succ[pred] = append(g.Succ[pred], id)
		g.Pred[id]++
	}
	last := func(reg any) int {
		if w, ok := g.lastWriter[reg]; ok {
			return w
		}
		return -1
	}
	for _, reg := range d.In {
		addDep(last(reg))
		g.readers[reg] = append(g.readers[reg], id)
	}
	writes := append(append([]any{}, d.Out...), d.InOut...)
	for _, reg := range writes {
		addDep(last(reg))
		for _, rd := range g.readers[reg] {
			addDep(rd)
		}
		g.readers[reg] = nil
		g.lastWriter[reg] = id
		if containsRegion(d.InOut, reg) {
			// An inout also reads: future writers must wait for it.
			g.readers[reg] = append(g.readers[reg], id)
		}
	}
	return id
}

// Len returns the number of tasks.
func (g *GraphBuilder) Len() int { return len(g.Succ) }

// Edges returns the number of dependence edges (the sum of Pred).
func (g *GraphBuilder) Edges() int {
	n := 0
	for _, p := range g.Pred {
		n += p
	}
	return n
}

// CriticalPath returns the longest cost-weighted path through the
// graph — the dataflow execution's lower bound at infinite parallelism.
func (g *GraphBuilder) CriticalPath() sim.Time {
	n := g.Len()
	finish := make([]sim.Time, n)
	var max sim.Time
	for i := 0; i < n; i++ {
		f := finish[i] + g.Costs[i]
		finish[i] = f // finish[i] held earliest start until now
		if f > max {
			max = f
		}
		for _, s := range g.Succ[i] {
			if f > finish[s] {
				finish[s] = f
			}
		}
	}
	return max
}

// RandomOrder returns a topological order of the graph drawn with r:
// each step runs one of the ready tasks, chosen uniformly. When the
// analysed dependences are complete, executing the tasks in any such
// order gives the sequential result.
func (g *GraphBuilder) RandomOrder(r *rng.Source) []int {
	pending := append([]int(nil), g.Pred...)
	var ready []int
	for i, p := range pending {
		if p == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, g.Len())
	for len(ready) > 0 {
		k := r.Intn(len(ready))
		t := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, t)
		for _, s := range g.Succ[t] {
			pending[s]--
			if pending[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// Schedule is one modelled execution of a graph on a worker pool: task
// i runs on worker lane Worker[i] from Start[i] to Start[i]+Costs[i].
type Schedule struct {
	Start  []sim.Time
	Worker []int
	// Makespan is the completion time of the last task.
	Makespan sim.Time
	// MaxReady is the high-water mark of the ready queue, a lower bound
	// on the parallelism the graph exposes.
	MaxReady int
}

// simEvent is a running task completion in the schedule simulation.
type simEvent struct {
	at   sim.Time
	task int
}

type simEventHeap []simEvent

func (h simEventHeap) Len() int           { return len(h) }
func (h simEventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h simEventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *simEventHeap) Push(x any)        { *h = append(*h, x.(simEvent)) }
func (h *simEventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Schedule simulates list scheduling of the graph on the given number
// of workers, using task costs as durations and priorities (then
// submission order) to pick among ready tasks. A started task takes the
// most recently freed worker lane (lanes 0, 1, ... at time zero).
func (g *GraphBuilder) Schedule(workers int) Schedule {
	if workers < 1 {
		panic("ompss: schedule with no workers")
	}
	n := g.Len()
	s := Schedule{Start: make([]sim.Time, n), Worker: make([]int, n)}
	pending := append([]int(nil), g.Pred...)
	ready := &prioIdxHeap{prio: g.Prio}
	push := func(t int) {
		heap.Push(ready, t)
		s.MaxReady = max(s.MaxReady, ready.Len())
	}
	for i := 0; i < n; i++ {
		if pending[i] == 0 {
			push(i)
		}
	}
	// idle holds the free worker lanes, lowest on top.
	idle := make([]int, workers)
	for i := range idle {
		idle[i] = workers - 1 - i
	}
	running := &simEventHeap{}
	var now sim.Time
	for done := 0; done < n; done++ {
		for len(idle) > 0 && ready.Len() > 0 {
			t := heap.Pop(ready).(int)
			s.Start[t], s.Worker[t] = now, idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			heap.Push(running, simEvent{at: now + g.Costs[t], task: t})
		}
		if running.Len() == 0 {
			panic("ompss: schedule deadlock — graph has unreachable tasks")
		}
		ev := heap.Pop(running).(simEvent)
		now = ev.at
		idle = append(idle, s.Worker[ev.task])
		for _, succ := range g.Succ[ev.task] {
			pending[succ]--
			if pending[succ] == 0 {
				push(succ)
			}
		}
	}
	s.Makespan = now
	return s
}

// Makespan returns the modelled parallel execution time on the given
// number of workers — the quantity the Cholesky speedup experiment
// sweeps over worker counts.
func (g *GraphBuilder) Makespan(workers int) sim.Time {
	return g.Schedule(workers).Makespan
}

// prioIdxHeap orders ready task indices by priority desc, then index.
type prioIdxHeap struct {
	idx  []int
	prio []int
}

func (h *prioIdxHeap) Len() int { return len(h.idx) }
func (h *prioIdxHeap) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return a < b
}
func (h *prioIdxHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *prioIdxHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *prioIdxHeap) Pop() any {
	old := h.idx
	n := len(old)
	v := old[n-1]
	h.idx = old[:n-1]
	return v
}
