// Package mpi implements the message-passing runtime that plays the
// role of ParaStation MPI in the DEEP software stack: communicators
// with ranks, tagged point-to-point messaging, the collectives the
// model uses, and — centrally for the paper — CommSpawn, which starts a
// new group of processes and connects it to the parents through an
// inter-communicator ("Global MPI", paper slides 24-29).
//
// Ranks are goroutines; messages are delivered through in-process
// mailboxes with MPI matching semantics (communicator context, source,
// tag, with wildcards). Every rank additionally carries a virtual
// clock: a pluggable Transport charges LogGP-style costs on each
// message, so a functional run simultaneously yields modelled execution
// times on the simulated DEEP hardware without a global event loop.
//
// The message path takes no world-wide lock: a communicator holds its
// peers resolved (a group is a slice of endpoints, and an endpoint
// carries the transport node it was placed on), so a send touches the
// sender's clock and the destination mailbox, nothing else.
//
// A []float64 payload — the halo rows and reduction operands the
// applications exchange — travels unboxed. The send copies it, before
// returning, into a buffer from a free list the destination mailbox
// owns, under the mailbox mutex both sides take anyway (no sync.Pool,
// no package state). RecvFloat64s copies it out and puts the buffer
// back inside the critical section that matched the message, so a
// typed receive takes the mailbox lock once; the reduction tree puts
// its operands back too, and Recv hands the buffer to its caller for good. A steady
// SendFloat64s/RecvFloat64s exchange thus allocates nothing, and a
// mailbox never owns more buffers than its deepest queue so far.
//
// Determinism. A rank's clock folds in message stamps in the order the
// rank receives them. A receive that names its source matches in
// per-pair FIFO order whatever the host does, so a program of such
// receives (every collective here, the four applications) reaches the
// same clocks on every run, however the host interleaves the rank
// goroutines. A wildcard receive matches in host arrival order, and the
// clock it leaves is the host's to decide.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Rank addresses a process within a communicator.
// AnySource matches messages from every rank.
const AnySource = -1

// Tag labels messages for matching. AnyTag matches every tag.
type Tag int

// AnyTag is the receive wildcard for tags.
const AnyTag Tag = -1

// Transport models the cost of moving bytes between two endpoints. The
// functional behaviour of the runtime is transport-independent; only
// the virtual clocks differ.
type Transport interface {
	// Cost returns the network time from injection at transport node
	// src to delivery at node dst, excluding the per-message software
	// overheads below. It must be a pure function of its arguments:
	// the determinism contract above rests on it.
	Cost(src, dst int, bytes int) sim.Time
	// SendOverhead is the sender-side software cost per message.
	SendOverhead() sim.Time
	// RecvOverhead is the receiver-side software cost per message.
	RecvOverhead() sim.Time
}

// ZeroTransport charges nothing; it turns the runtime into a purely
// functional message-passing library.
type ZeroTransport struct{}

// Cost implements Transport.
func (ZeroTransport) Cost(_, _ int, _ int) sim.Time { return 0 }

// SendOverhead implements Transport.
func (ZeroTransport) SendOverhead() sim.Time { return 0 }

// RecvOverhead implements Transport.
func (ZeroTransport) RecvOverhead() sim.Time { return 0 }

// ConstTransport charges a fixed alpha plus beta per byte, the textbook
// alpha-beta machine model; useful in tests and closed-form
// experiments.
type ConstTransport struct {
	Alpha    sim.Time
	BetaPerB sim.Time
	OSend    sim.Time
	ORecv    sim.Time
}

// Cost implements Transport.
func (t ConstTransport) Cost(_, _ int, bytes int) sim.Time {
	return t.Alpha + sim.Time(bytes)*t.BetaPerB
}

// SendOverhead implements Transport.
func (t ConstTransport) SendOverhead() sim.Time { return t.OSend }

// RecvOverhead implements Transport.
func (t ConstTransport) RecvOverhead() sim.Time { return t.ORecv }

// envelope is one in-flight message. A []float64 payload travels
// unboxed in f64, a copy held in a buffer of the destination mailbox;
// every other payload travels in data.
type envelope struct {
	ctx     int32
	srcRank int // rank in the sending communicator's (local) group
	tag     Tag
	f64     []float64 // non-nil exactly for []float64 payloads
	data    any
	bytes   int
	// stamp is the virtual time at which the message is available at
	// the receiver (sender clock + overhead + transport cost).
	stamp sim.Time
}

// endpoint is the per-process runtime state: mailbox plus virtual
// clock. The owning goroutine is the only reader of vt; senders only
// read it via the stamp they computed before handing off.
type endpoint struct {
	id int
	// node is the transport node the process runs on: the world's
	// placement of id, or Spawn's Place, fixed before the process starts.
	node int
	mu   sync.Mutex
	cond *sync.Cond
	box  []envelope
	// free holds the []float64 buffers receives handed back, for the
	// next senders to this mailbox. Guarded by mu.
	free [][]float64

	// costs memoises the pure Transport.Cost from node (fixed before the
	// process sends) per destination node and size, direct-mapped on the
	// destination node. Owned by the rank goroutine.
	costs [8]struct {
		node, bytes int
		cost        sim.Time
		ok          bool
	}

	// vt is the endpoint's virtual clock, owned by the rank goroutine.
	vt sim.Time

	// statistics, owned by the rank goroutine
	sentMsgs  uint64
	sentBytes uint64
	recvMsgs  uint64
	recvBytes uint64
}

// take returns a buffer of n floats for a message to this mailbox: the
// most recently recycled one if it is large enough, else a new one (the
// small one is dropped, so a mailbox never owns more buffers than its
// peak depth). Caller holds ep.mu.
func (ep *endpoint) take(n int) []float64 {
	if last := len(ep.free) - 1; last >= 0 {
		buf := ep.free[last]
		ep.free = ep.free[:last]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// recycle returns a received message's buffer to the free list.
func (ep *endpoint) recycle(buf []float64) {
	ep.mu.Lock()
	ep.free = append(ep.free, buf)
	ep.mu.Unlock()
}

// World is one running MPI universe: the set of endpoints (including
// any spawned after startup), the transport, and bookkeeping for
// context-id allocation.
type World struct {
	transport Transport
	placeFn   func(ep int) int // endpoint -> transport node (immutable)

	mu        sync.Mutex
	endpoints []*endpoint
	nextCtx   int32

	wg    sync.WaitGroup
	errMu sync.Mutex
	errs  []error
}

// Option configures a World.
type Option func(*World)

// WithPlacement sets the endpoint-to-node mapping used by the
// transport; the default is the identity.
func WithPlacement(place func(ep int) int) Option {
	return func(w *World) { w.placeFn = place }
}

// NewWorld returns a world using the given transport.
func NewWorld(t Transport, opts ...Option) *World {
	w := &World{transport: t, placeFn: func(ep int) int { return ep }}
	for _, o := range opts {
		o(w)
	}
	return w
}

func (w *World) newContext() int32 { return atomic.AddInt32(&w.nextCtx, 1) }

func (w *World) addEndpoints(n int) []*endpoint {
	eps := make([]*endpoint, n)
	w.mu.Lock()
	for i := range eps {
		eps[i] = &endpoint{id: len(w.endpoints)}
		eps[i].cond = sync.NewCond(&eps[i].mu)
		w.endpoints = append(w.endpoints, eps[i])
	}
	w.mu.Unlock()
	for _, ep := range eps {
		ep.node = w.placeFn(ep.id) // nobody else holds ep yet
	}
	return eps
}

func (w *World) recordErr(err error) {
	if err == nil {
		return
	}
	w.errMu.Lock()
	w.errs = append(w.errs, err)
	w.errMu.Unlock()
}

// Run starts n ranks executing fn and blocks until every rank in the
// world — including ranks created later via CommSpawn — has returned.
// It returns the joined errors and the maximum virtual time over all
// endpoints (the modelled makespan).
func (w *World) Run(n int, fn func(*Comm) error) (sim.Time, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mpi: Run with %d ranks", n)
	}
	eps := w.addEndpoints(n)
	ctx := w.newContext()
	for i := range eps {
		w.launch(&Comm{world: w, ep: eps[i], ctx: ctx, group: eps, rank: i}, fn)
	}
	w.wg.Wait()
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

func (w *World) launch(comm *Comm, fn func(*Comm) error) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				// An error value stays matchable with errors.Is.
				err, ok := r.(error)
				if !ok {
					err = fmt.Errorf("%v", r)
				}
				w.recordErr(fmt.Errorf("mpi: rank %d panicked: %w", comm.rank, err))
			}
		}()
		w.recordErr(fn(comm))
	}()
}

// Run is the package-level convenience: one world, one entry function.
func Run(n int, t Transport, fn func(*Comm) error) (sim.Time, error) {
	return NewWorld(t).Run(n, fn)
}

// Status describes a received message.
type Status struct {
	Source int
	Tag    Tag
	Bytes  int
}

// Stats is a snapshot of one rank's traffic counters.
type Stats struct {
	SentMsgs, RecvMsgs   uint64
	SentBytes, RecvBytes uint64
}
