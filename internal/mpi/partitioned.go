package mpi

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// router diverts the runtime's delivery and blocking points. The plain
// World leaves it nil: sends append to the destination mailbox directly
// and a blocked Recv sleeps on the mailbox condition. The partitioned
// runtime implements it to turn deliveries into simulation events and
// blocked receives into parked coroutines.
type router interface {
	// send delivers env to epDst on behalf of c's rank.
	send(c *Comm, epDst *endpoint, env envelope)
	// wait blocks c's rank until new mail may have arrived. Called with
	// c.ep.mu held; must hold it again on return.
	wait(c *Comm)
}

// MinCoster is implemented by transports that can bound their Cost from
// below for any pair of distinct nodes. The bound is the partitioned
// runtime's cross-domain lookahead: a message between ranks in
// different domains can never arrive sooner than SendOverhead plus
// MinCost after it was issued, so domain clocks may run ahead of each
// other by that margin without risking causality.
type MinCoster interface {
	// MinCost returns a lower bound on Cost(src, dst, bytes) over all
	// src != dst and all byte counts.
	MinCost() sim.Time
}

// deadlockPanic unwinds a rank parked in Recv when the kernel drains
// with ranks still blocked.
type deadlockPanic struct{}

// prank is the coroutine state of one rank under the partitioned
// runtime. The rank goroutine runs only between a receive on resume and
// a send on yield, so at most one of {rank goroutine, its domain
// engine} is executing at any time — rank code runs logically inside
// the engine event that resumed it.
type prank struct {
	resume chan struct{}
	yield  chan struct{}
	dom    int
	rank   int
	// done is written by the rank goroutine before its final yield and
	// read by its domain engine after receiving that yield.
	done bool
}

// PartitionedWorld runs an MPI world on the parallel discrete-event
// kernel: ranks are pinned to K contiguous domains, each domain's
// deliveries execute on its own sim.Engine, and messages between ranks
// in different domains travel through sim.Cluster.Post as cross-domain
// events merged at conservative window barriers. The virtual-clock
// arithmetic is identical to the plain World, so modelled makespans do
// not depend on K; wall-clock time does, because rank computation in
// different domains overlaps only within the kernel's windows.
//
// Spawn is not supported: partition membership is fixed at Run.
type PartitionedWorld struct {
	w         *World
	cl        *sim.Cluster
	k         int
	lookahead sim.Time
	maxWindow int
	ranks     []*prank
	byEp      map[int]*prank
	abort     chan struct{}
	wg        sync.WaitGroup
	running   bool
}

// NewPartitionedWorld returns a world over t partitioned into k rank
// domains. t must implement MinCoster so a conservative cross-domain
// lookahead (SendOverhead + MinCost, at least one tick) can be derived.
func NewPartitionedWorld(t Transport, k int, opts ...Option) (*PartitionedWorld, error) {
	if k < 1 {
		return nil, fmt.Errorf("mpi: partitioned world with %d domains", k)
	}
	mc, ok := t.(MinCoster)
	if !ok {
		return nil, fmt.Errorf("mpi: transport %T does not bound its minimum cross-node cost (MinCoster); cannot derive a conservative lookahead", t)
	}
	l := t.SendOverhead() + mc.MinCost()
	if l < 1 {
		l = 1
	}
	pw := &PartitionedWorld{k: k, lookahead: l}
	pw.w = NewWorld(t, opts...)
	pw.w.rt = pw
	return pw, nil
}

// World returns the underlying MPI world (rank statistics, transport).
func (pw *PartitionedWorld) World() *World { return pw.w }

// Domains returns the domain count K (clamped to the rank count once
// Run has been called).
func (pw *PartitionedWorld) Domains() int { return pw.k }

// Lookahead returns the derived cross-domain lookahead.
func (pw *PartitionedWorld) Lookahead() sim.Time { return pw.lookahead }

// SetMaxWindow enables adaptive window widening on the kernel backing
// the next Run; see sim.Cluster.SetMaxWindow.
func (pw *PartitionedWorld) SetMaxWindow(mult int) { pw.maxWindow = mult }

// KernelStats returns the kernel's window counters for the last Run.
func (pw *PartitionedWorld) KernelStats() sim.ClusterStats {
	if pw.cl == nil {
		return sim.ClusterStats{}
	}
	return pw.cl.Stats()
}

// Run starts n ranks executing fn, pinned to domains in contiguous
// blocks (rank r lives in domain r*K/n), and drives the kernel until
// every rank has returned or the world deadlocks. It returns the joined
// errors and the modelled makespan, exactly as World.Run.
func (pw *PartitionedWorld) Run(n int, fn func(*Comm) error) (sim.Time, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mpi: Run with %d ranks", n)
	}
	if pw.running {
		return 0, fmt.Errorf("mpi: PartitionedWorld.Run called twice")
	}
	pw.running = true
	if pw.k > n {
		pw.k = n
	}
	pw.cl = sim.NewCluster(pw.k, pw.lookahead)
	if pw.maxWindow > 1 {
		pw.cl.SetMaxWindow(pw.maxWindow)
	}
	w := pw.w
	eps := w.addEndpoints(n)
	ctx := w.newContext()
	pw.abort = make(chan struct{})
	pw.ranks = make([]*prank, n)
	pw.byEp = make(map[int]*prank, n)
	for i := range eps {
		r := &prank{
			resume: make(chan struct{}),
			yield:  make(chan struct{}),
			dom:    i * pw.k / n,
			rank:   i,
		}
		pw.ranks[i] = r
		pw.byEp[eps[i].id] = r
		comm := &Comm{world: w, ep: eps[i], ctx: ctx, group: eps, rank: i}
		pw.wg.Add(1)
		go pw.runRank(r, comm, fn)
		pw.cl.Engine(r.dom).At(0, func() { pw.step(r) })
	}
	pw.cl.Run()
	// Every rank is now parked or done. Parked ranks are deadlocked:
	// the kernel drained with no event left to wake them.
	stuck := false
	for _, r := range pw.ranks {
		if !r.done {
			stuck = true
			break
		}
	}
	if stuck {
		close(pw.abort)
	}
	pw.wg.Wait()
	w.mu.Lock()
	var max sim.Time
	for _, ep := range w.endpoints {
		if ep.vt > max {
			max = ep.vt
		}
	}
	w.mu.Unlock()
	w.errMu.Lock()
	defer w.errMu.Unlock()
	if len(w.errs) > 0 {
		return max, fmt.Errorf("mpi: %d rank(s) failed, first: %w", len(w.errs), w.errs[0])
	}
	return max, nil
}

// runRank is the rank goroutine body: wait for the kernel's first
// resume, run fn, and hand control back on every exit path.
func (pw *PartitionedWorld) runRank(r *prank, comm *Comm, fn func(*Comm) error) {
	defer pw.wg.Done()
	<-r.resume
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(deadlockPanic); ok {
				pw.w.recordErr(fmt.Errorf("mpi: rank %d blocked in Recv at partitioned shutdown (deadlock)", r.rank))
			} else {
				pw.w.recordErr(fmt.Errorf("mpi: rank %d panicked: %v", r.rank, rec))
			}
		}
		r.done = true
		select {
		case r.yield <- struct{}{}:
		case <-pw.abort:
		}
	}()
	pw.w.recordErr(fn(comm))
}

// step transfers control to r's goroutine and blocks the calling engine
// until the rank parks or finishes. Called only from r's domain engine.
func (pw *PartitionedWorld) step(r *prank) {
	if r.done {
		return
	}
	r.resume <- struct{}{}
	<-r.yield
}

// park hands control back to r's domain engine and blocks the rank
// until the next delivery resumes it. Called only from r's goroutine.
func (pw *PartitionedWorld) park(r *prank) {
	r.yield <- struct{}{}
	select {
	case <-r.resume:
	case <-pw.abort:
		panic(deadlockPanic{})
	}
}

// send implements router: the message becomes a simulation event at its
// arrival stamp on the destination rank's domain engine — a plain
// scheduled event inside one domain, a conservative cross-domain event
// between domains.
func (pw *PartitionedWorld) send(c *Comm, epDst *endpoint, env envelope) {
	src, dst := pw.byEp[c.ep.id], pw.byEp[epDst.id]
	if src == nil || dst == nil {
		// Endpoint outside the partitioned group (defensive: Spawn is
		// refused, so this should not occur).
		epDst.deliver(env)
		return
	}
	deliver := func() {
		epDst.deliver(env)
		pw.step(dst)
	}
	if src.dom == dst.dom {
		// The sender runs inside an event on this same engine, and its
		// clock never trails the engine: stamp >= vt >= now.
		pw.cl.Engine(dst.dom).At(env.stamp, deliver)
		return
	}
	if now := pw.cl.Engine(src.dom).Now(); env.stamp < now+pw.lookahead {
		panic(fmt.Sprintf(
			"mpi: cross-domain message at %v from rank %d (domain %d, clock %v) violates lookahead %v; ranks in different domains must be placed on distinct transport nodes",
			env.stamp, c.rank, src.dom, now, pw.lookahead))
	}
	pw.cl.Post(src.dom, dst.dom, env.stamp, deliver)
}

// wait implements router: instead of sleeping on the mailbox condition,
// the rank parks so its domain engine can advance to the delivery that
// will wake it. Called with c.ep.mu held.
func (pw *PartitionedWorld) wait(c *Comm) {
	r := pw.byEp[c.ep.id]
	if r == nil {
		c.ep.cond.Wait()
		return
	}
	c.ep.mu.Unlock()
	pw.park(r)
	c.ep.mu.Lock()
}
