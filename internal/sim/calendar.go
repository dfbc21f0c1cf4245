package sim

// This file implements the calendar-queue event scheduler that backs
// Engine: a ring of buckets, each covering one "day" of virtual time,
// cycled through year after year. Each bucket keeps its events sorted
// by (time, sequence) with a tail pointer, so the common scheduling
// patterns — monotone bursts (a message fan-out at one instant) and
// near-future singletons — insert in O(1), and dequeue is a head
// check. The structure replaces the former container/heap queue,
// whose O(log n) sift plus per-event interface boxing dominated
// large-machine runs.
//
// Determinism contract: popMin always returns the globally least
// event under (time, sequence) order, so execution order is identical
// to the heap implementation regardless of bucket geometry.
//
// Geometry follows the head of the queue, not its span: the day width
// is fitted to the spacing of the earliest events (Brown's sampling),
// because those are the ones about to be popped and the ones new
// events land beside. A population of far-future timers spread over
// milliseconds therefore cannot stretch the days under a cluster of
// in-flight packets nanoseconds from now. When the head moves to a
// different density the calendar notices — inserts start walking
// bucket lists, or pops start walking empty days — and refits once
// the walking has cost as much as the refit will.

const (
	minBuckets = 64
	maxBuckets = 1 << 18
	// initialWidth is the day width before the first resize has seen
	// real event spacing; fabric events are nanoseconds apart.
	initialWidth = 100 * Nanosecond
	// headSample is how many of the earliest events the width is
	// fitted to.
	headSample = 64
	// walkLimit is how many steps an insert (along a bucket list) or a
	// pop (over empty days) may take for free; steps beyond it are
	// charged to the current width as strain.
	walkLimit = 8
	// maxSlab caps the block size a Slab allocates in.
	maxSlab = 256
)

// bucket is one sorted day list.
type bucket struct {
	head, tail *Event
}

// calendar is the bucketed priority queue. The zero value is ready to
// use after init().
type calendar struct {
	buckets []bucket
	mask    int
	width   Time
	// count is the number of live (scheduled, uncancelled) events;
	// nodes additionally counts cancelled events not yet unlinked.
	count int
	nodes int
	// cur/day track the bucket whose day contains the scheduler's
	// current position; no live event is earlier than day.
	cur int
	day Time
	// maxDepth records the high-water mark of count plus held (insert).
	maxDepth int
	resizes  uint64
	// strain sums the steps past walkLimit that inserts and pops have
	// walked since the width was last fitted; linkSteps and daySteps
	// total the steps ever walked.
	strain              int
	linkSteps, daySteps uint64
	// free heads the event free list, a stack threaded through the
	// events' own next pointers (it costs no memory and never grows),
	// and nfree is its length. An event enters it when it leaves the
	// calendar and the next schedule takes the most recent one, so the
	// list never outgrows the most events ever queued at once and
	// reuse is a pure function of the event sequence.
	free  *Event
	nfree int
	// slab issues the events the free list cannot supply.
	slab Slab[Event]
}

// Slab hands out zeroed values that have never been used, to owners
// that recycle them on a free list of their own. They come from the
// allocator in blocks, each twice the last up to maxSlab and only when
// the last is used up: 300 000 first uses at one instant are some 1 200
// allocations, a handful of uses a handful. The zero Slab is ready.
type Slab[T any] struct {
	block []T
	used  int
}

// New returns the next unused value.
func (s *Slab[T]) New() *T {
	if s.used == len(s.block) {
		s.block = make([]T, min(max(2*len(s.block), 1), maxSlab))
		s.used = 0
	}
	s.used++
	return &s.block[s.used-1]
}

// recycle clears an unlinked event — the free list must not pin the
// callback it carried — and pushes it on the free list.
func (c *calendar) recycle(ev *Event) {
	ev.fn = nil
	ev.h = nil
	ev.queued = false
	ev.cancelled = false
	ev.next = c.free
	c.free = ev
	c.nfree++
}

// reuse pops an event off the free list, or returns nil when it is
// empty.
func (c *calendar) reuse() *Event {
	ev := c.free
	if ev != nil {
		c.free, ev.next = ev.next, nil
		c.nfree--
	}
	return ev
}

func (c *calendar) init() {
	if c.buckets == nil {
		c.buckets = make([]bucket, minBuckets)
		c.mask = minBuckets - 1
		c.width = initialWidth
	}
}

// bucketOf maps an event time to its bucket index.
func (c *calendar) bucketOf(t Time) int {
	return int(uint64(t/c.width) & uint64(c.mask))
}

// less orders events by (time, sequence).
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// insert links ev into its sorted bucket; held scheduled events wait outside.
func (c *calendar) insert(ev *Event, held int) {
	c.init()
	steps := c.link(ev)
	c.count++
	c.nodes++
	c.maxDepth = max(c.maxDepth, c.count+held)
	c.linkSteps += uint64(steps)
	if steps <= walkLimit {
		return
	}
	c.strain += steps - walkLimit
	if c.count > 2*len(c.buckets) && len(c.buckets) < maxBuckets {
		// More buckets only ever save list walking, so the calendar grows
		// when an insert has walked, not when the population is large (a
		// burst at one or two instants appends at one or two tails for
		// free whatever the geometry), and then goes straight to the size
		// doubling would have stopped at: at most two live events a bucket.
		n := 2 * len(c.buckets)
		for 2*n < c.count && n < maxBuckets {
			n *= 2
		}
		c.resize(n)
	}
}

// link places ev into sorted position within its bucket and returns
// the list steps it took. Monotone arrivals append at the tail in
// O(1); out-of-order arrivals walk.
func (c *calendar) link(ev *Event) (steps int) {
	b := &c.buckets[c.bucketOf(ev.at)]
	switch {
	case b.head == nil:
		b.head, b.tail = ev, ev
		ev.next = nil
	case !less(ev, b.tail):
		b.tail.next = ev
		b.tail = ev
		ev.next = nil
	case less(ev, b.head):
		ev.next = b.head
		b.head = ev
	default:
		p := b.head
		for p.next != nil && !less(ev, p.next) {
			p = p.next
			steps++
		}
		ev.next = p.next
		p.next = ev
	}
	return steps
}

// headOf purges cancelled events from the front of bucket idx and
// returns its least live event (nil for an empty bucket).
func (c *calendar) headOf(idx int) *Event {
	b := &c.buckets[idx]
	for b.head != nil && b.head.cancelled {
		ev := b.head
		b.head = ev.next
		if b.head == nil {
			b.tail = nil
		}
		c.nodes--
		c.recycle(ev)
	}
	return b.head
}

// unlinkHead removes the head of bucket idx.
func (c *calendar) unlinkHead(idx int) *Event {
	b := &c.buckets[idx]
	ev := b.head
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
	}
	ev.next = nil
	ev.queued = false
	c.nodes--
	c.count--
	return ev
}

// sweep drops cancelled nodes from every bucket. Called when the dead
// fraction grows large, so heavy Cancel use cannot bloat the buckets
// (a cancelled node in the middle of a chain is otherwise unlinked
// only when it surfaces at a bucket head or during a resize).
func (c *calendar) sweep() {
	for idx := range c.buckets {
		b := &c.buckets[idx]
		var prev *Event
		ev := b.head
		for ev != nil {
			next := ev.next
			if ev.cancelled {
				if prev == nil {
					b.head = next
				} else {
					prev.next = next
				}
				c.nodes--
				c.recycle(ev)
			} else {
				prev = ev
			}
			ev = next
		}
		b.tail = prev
	}
}

// popMin removes and returns the least event with at <= deadline, or
// nil when none exists. With remove=false it only peeks.
func (c *calendar) popMin(deadline Time, remove bool) *Event {
	if c.count == 0 {
		return nil
	}
	if remove {
		switch {
		case c.count < len(c.buckets)/4 && len(c.buckets) > minBuckets:
			c.resize(len(c.buckets) / 2)
		case c.strain > c.count+minBuckets:
			// The width no longer fits the head. A refit costs O(count)
			// and is paid for by the walking already done, so refits
			// stay amortised O(1) per step even when no width can help.
			c.resize(len(c.buckets))
		}
	}
	if ev, conclusive := c.dayWalk(deadline, remove); conclusive {
		return ev
	}
	// A whole year passed without a hit: the head of the population is
	// spread far wider than the current day width covers (a handful of
	// events milliseconds apart under a nanosecond-era width). Re-fit
	// the width to it and walk again.
	c.resize(len(c.buckets))
	if ev, conclusive := c.dayWalk(deadline, remove); conclusive {
		return ev
	}
	// Safety net (unreachable for sane geometries): direct search over
	// the bucket heads, jumping the calendar to the winner.
	bestIdx := -1
	var best *Event
	for idx := range c.buckets {
		if ev := c.headOf(idx); ev != nil && (best == nil || less(ev, best)) {
			best, bestIdx = ev, idx
		}
	}
	if best == nil || best.at > deadline {
		return nil
	}
	if remove {
		c.day = best.at - best.at%c.width
		c.cur = c.bucketOf(c.day)
		return c.unlinkHead(bestIdx)
	}
	return best
}

// dayWalk advances day by day for up to one year looking for the next
// event. The boolean reports whether the walk was conclusive: an
// event found, or the deadline proven unreachable. A false return
// means the year was exhausted and the caller should re-fit the
// calendar geometry.
func (c *calendar) dayWalk(deadline Time, remove bool) (*Event, bool) {
	cur, day := c.cur, c.day
	for i := 0; i <= c.mask; i++ {
		if day > deadline {
			return nil, true
		}
		if ev := c.headOf(cur); ev != nil && ev.at < day+c.width {
			if ev.at > deadline {
				return nil, true
			}
			// Only a removal may advance the cursor. A peek happens in
			// the middle of event execution: the running event can
			// still schedule work between now and the peeked minimum,
			// and a cursor moved past those insertions would skip them.
			if remove {
				c.cur, c.day = cur, day
				c.daySteps += uint64(i)
				if i > walkLimit {
					c.strain += i - walkLimit
				}
				return c.unlinkHead(cur), true
			}
			return ev, true
		}
		cur = (cur + 1) & c.mask
		day += c.width
	}
	return nil, false
}

// resize rebuilds the calendar with n buckets and a day width fitted
// to the spacing of the earliest live events. The calendar is anchored
// at c.day, the day of the last removal: the engine clock never runs
// behind it, so no live event and no later insert can precede it.
func (c *calendar) resize(n int) {
	var all *Event
	var hi Time
	// head[:k] holds the k earliest times seen so far, ascending.
	var head [headSample]Time
	k := 0
	for idx := range c.buckets {
		ev := c.buckets[idx].head
		for ev != nil {
			next := ev.next
			if ev.cancelled {
				c.nodes--
				c.recycle(ev)
			} else {
				if ev.at > hi {
					hi = ev.at
				}
				if k < headSample || ev.at < head[k-1] {
					if k < headSample {
						k++
					}
					i := k - 1
					for ; i > 0 && head[i-1] > ev.at; i-- {
						head[i] = head[i-1]
					}
					head[i] = ev.at
				}
				ev.next = all
				all = ev
			}
			ev = next
		}
	}
	// Three mean gaps of the earliest events per day (Brown's rule):
	// the events about to be popped then sit about one to a bucket
	// whatever the rest of the population does. When the whole sample
	// shares one instant (a halo exchange fired at a single time) fall
	// back to ~one live event per day across the observed span, with a
	// factor of 2 of slack. Widths both far above and far below the
	// initial guess matter: resilience horizons are seconds apart,
	// packet bursts picoseconds.
	width := initialWidth
	switch {
	case k > 1 && head[k-1] > head[0]:
		width = 3 * ((head[k-1] - head[0]) / Time(k-1))
	case k > 1 && hi > head[0]:
		width = 2 * (hi - head[0]) / Time(c.count)
	}
	if width < 1 {
		width = 1
	}
	if n == len(c.buckets) {
		clear(c.buckets)
	} else {
		c.buckets = make([]bucket, n)
		c.mask = n - 1
	}
	c.width = width
	c.resizes++
	c.strain = 0
	c.day -= c.day % width
	c.cur = c.bucketOf(c.day)
	for all != nil {
		next := all.next
		c.link(all)
		all = next
	}
}
