package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Comm is a communicator handle held by exactly one rank goroutine.
// For an intra-communicator, group lists the endpoints of all members
// and remote is nil. For an inter-communicator (the result of
// CommSpawn), group is the local group and remote is the remote group;
// point-to-point operations address ranks of the remote group, as in
// MPI. Peers are held resolved, so a message takes no world lock.
type Comm struct {
	world  *World
	ep     *endpoint
	ctx    int32
	group  []*endpoint // local group, index = rank
	remote []*endpoint // non-nil for inter-communicators
	rank   int         // this process's rank in the local group
	parent *Comm       // inter-communicator to the spawning processes, if any
}

// Rank returns the caller's rank in the local group.
func (c *Comm) Rank() int { return c.rank }

// Size returns the local group size.
func (c *Comm) Size() int { return len(c.group) }

// Parent returns the inter-communicator to the processes that spawned
// this world, or nil for the initial world (MPI_Comm_get_parent).
func (c *Comm) Parent() *Comm { return c.parent }

// Time returns the rank's virtual clock.
func (c *Comm) Time() sim.Time { return c.ep.vt }

// Advance adds modelled local computation time to the rank's clock.
func (c *Comm) Advance(d sim.Time) {
	if d < 0 {
		panic("mpi: Advance by negative duration")
	}
	c.ep.vt += d
}

// Stats returns the rank's traffic counters.
func (c *Comm) Stats() Stats {
	return Stats{
		SentMsgs: c.ep.sentMsgs, RecvMsgs: c.ep.recvMsgs,
		SentBytes: c.ep.sentBytes, RecvBytes: c.ep.recvBytes,
	}
}

// Send transmits data to dst with the given tag. The send is buffered:
// it does not wait for a matching receive (eager protocol), and slice
// payloads are copied, so the sender may reuse its buffer as soon as
// Send returns. The virtual clock advances by the sender overhead; the
// message becomes available at the receiver at sender-time + overhead +
// transport cost.
func (c *Comm) Send(dst int, tag Tag, data any) {
	checkUserTag(tag)
	c.sendInternal(dst, tag, data)
}

// SendFloat64s is Send for the payload the applications exchange most:
// the copy goes into a buffer owned by dst's mailbox, which
// RecvFloat64s hands back, so a steady exchange allocates nothing.
func (c *Comm) SendFloat64s(dst int, tag Tag, data []float64) {
	checkUserTag(tag)
	c.post(dst, tag, nil, data, true)
}

func checkUserTag(tag Tag) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: Send with reserved tag %d", tag))
	}
}

// sendInternal is Send without the user-tag validation, for runtime
// traffic.
func (c *Comm) sendInternal(dst int, tag Tag, data any) {
	if f, ok := data.([]float64); ok {
		c.post(dst, tag, nil, f, true)
		return
	}
	c.post(dst, tag, clonePayload(data), nil, false)
}

// post is the one send path: it stamps the message with the sender's
// clock plus the transport cost between the two processes' nodes and
// hands it to dst's mailbox. A typed payload is copied here, before the
// sender can touch its buffer again.
func (c *Comm) post(dst int, tag Tag, data any, f64 []float64, typed bool) {
	g := c.group
	if c.remote != nil {
		g = c.remote
	}
	if dst < 0 || dst >= len(g) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", dst, len(g)))
	}
	to, t := g[dst], c.world.transport
	env := envelope{ctx: c.ctx, srcRank: c.rank, tag: tag, data: data, bytes: 8 * len(f64)}
	if !typed {
		env.bytes = PayloadBytes(data)
	}
	memo := &c.ep.costs[to.node&7]
	if !memo.ok || memo.node != to.node || memo.bytes != env.bytes {
		memo.node, memo.bytes, memo.ok = to.node, env.bytes, true
		memo.cost = t.Cost(c.ep.node, to.node, env.bytes)
	}
	c.ep.vt += t.SendOverhead()
	env.stamp = c.ep.vt + memo.cost
	c.ep.sentMsgs++
	c.ep.sentBytes += uint64(env.bytes)
	to.mu.Lock()
	if typed {
		env.f64 = to.take(len(f64))
		copy(env.f64, f64)
	}
	to.box = append(to.box, env)
	to.mu.Unlock()
	to.cond.Broadcast()
}

// match returns the index of the first envelope in the mailbox matching
// (ctx, src, tag), or -1. Caller holds ep.mu.
func (ep *endpoint) match(ctx int32, src int, tag Tag) int {
	for i := range ep.box {
		env := &ep.box[i]
		if env.ctx == ctx && (src == AnySource || env.srcRank == src) && (tag == AnyTag || env.tag == tag) {
			return i
		}
	}
	return -1
}

// recv is the one receive path: it blocks until a message matching src
// and tag arrives on c, removes it from the mailbox and moves the
// rank's clock to max(local + recv overhead, message availability time).
// With typed set, a []float64 payload that fits into is copied there and
// its buffer freed under the same lock; the caller reports any misfit.
func (c *Comm) recv(src int, tag Tag, into []float64, typed bool) envelope {
	if src != AnySource && c.remote == nil {
		// Validate early for intra-comms; inter-comm sources are remote
		// ranks.
		if src < 0 || src >= len(c.group) {
			panic(fmt.Sprintf("mpi: Recv from rank %d of %d", src, len(c.group)))
		}
	}
	ep := c.ep
	ep.mu.Lock()
	i := ep.match(c.ctx, src, tag)
	for ; i < 0; i = ep.match(c.ctx, src, tag) {
		ep.cond.Wait()
	}
	env := ep.box[i]
	ep.box = append(ep.box[:i], ep.box[i+1:]...)
	if typed && env.f64 != nil && len(env.f64) <= len(into) {
		copy(into, env.f64)
		ep.free = append(ep.free, env.f64)
	}
	ep.mu.Unlock()
	arrived := env.stamp
	local := ep.vt + c.world.transport.RecvOverhead()
	if arrived > local {
		ep.vt = arrived
	} else {
		ep.vt = local
	}
	ep.recvMsgs++
	ep.recvBytes += uint64(env.bytes)
	return env
}

func (env *envelope) status() Status {
	return Status{Source: env.srcRank, Tag: env.tag, Bytes: env.bytes}
}

// Recv blocks until a message matching src and tag arrives on c and
// returns its payload. src may be AnySource and tag may be AnyTag. A
// []float64 payload is the caller's to keep: its buffer leaves the
// mailbox for good.
func (c *Comm) Recv(src int, tag Tag) (any, Status) {
	env := c.recv(src, tag, nil, false)
	if env.f64 != nil {
		return env.f64, env.status()
	}
	return env.data, env.status()
}

// RecvFloat64s is Recv for a []float64 message: the payload is copied
// into into, its length returned, and the message's buffer goes back to
// the mailbox for the next sender. It panics if the message is not a
// []float64 or does not fit.
func (c *Comm) RecvFloat64s(src int, tag Tag, into []float64) (int, Status) {
	env := c.recv(src, tag, into, true)
	if env.f64 == nil {
		panic(fmt.Sprintf("mpi: rank %d RecvFloat64s from source %d tag %d: payload is %T, not []float64",
			c.rank, env.srcRank, env.tag, env.data))
	}
	if len(env.f64) > len(into) {
		panic(fmt.Sprintf("mpi: rank %d RecvFloat64s from source %d tag %d: %d floats do not fit a buffer of %d",
			c.rank, env.srcRank, env.tag, len(env.f64), len(into)))
	}
	return len(env.f64), env.status()
}
