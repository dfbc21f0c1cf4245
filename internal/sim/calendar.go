package sim

import (
	"sync"

	"repro/internal/fastdiv"
)

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
)

// bucket is one sorted day list, by event index (0 when empty).
type bucket struct {
	head, tail int32
}

// calendar is the bucketed priority queue. The zero value is ready to
// use after init().
type calendar struct {
	buckets []bucket
	mask    int
	// width is the day width and div divides by it (see setWidth).
	width Time
	div   fastdiv.Divisor
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
	// records' own next links (it costs no memory and never grows).
	// An event enters it when it leaves the calendar and the next
	// schedule takes the most recent one, so the list never outgrows
	// the most events ever queued at once and reuse is a pure function
	// of the event sequence.
	free int32
	// recs holds the records (40 B each, a page is 20 KiB). used counts
	// the indices issued since the calendar last went idle (see trim),
	// peak the most ever issued. Index 0 is reserved: 0 ends every
	// chain, and the zero bucket is empty.
	recs       Pages[Event]
	used, peak int32
}

// eventPages is the pool every calendar takes its event pages from.
var eventPages = sync.Pool{New: func() any { return new([PageLen]Event) }}

// ev returns event i's record.
func (c *calendar) ev(i int32) *Event { return c.recs.At(i) }

// fresh issues the next index not used since the calendar went idle.
func (c *calendar) fresh() (int32, *Event) {
	c.used = max(c.used, 1) + 1
	c.recs.Reach(c.used-1, &eventPages)
	return c.used - 1, c.ev(c.used - 1)
}

// trim hands an idle calendar's pages but the first back, every record
// on them zero but its next link, and starts the index space over: the
// free list held every index below used, fresh reissues them in order.
func (c *calendar) trim() {
	if c.nodes == 0 && c.recs.Len() > PageLen {
		c.recs.Trim(&eventPages)
		c.used, c.free = 1, 0
	}
}

// recycle zeroes ev, unlinked event i, and pushes it on the free list.
func (c *calendar) recycle(i int32, ev *Event) {
	*ev = Event{next: c.free}
	c.free = i
}

// reuse pops an event off the free list, or returns 0, nil when it is
// empty.
func (c *calendar) reuse() (int32, *Event) {
	i := c.free
	if i == 0 {
		return 0, nil
	}
	ev := c.ev(i)
	c.free, ev.next = ev.next, 0
	return i, ev
}

func (c *calendar) init() {
	if c.buckets == nil {
		c.buckets = make([]bucket, minBuckets)
		c.mask = minBuckets - 1
		c.setWidth(initialWidth)
	}
}

// setWidth sets the day width, w >= 1, and its reciprocal: every
// scheduled event finds its bucket with a multiply, not a divide.
func (c *calendar) setWidth(w Time) {
	c.width, c.div = w, fastdiv.New(uint64(w))
}

// bucketOf maps an event time, never negative, to its bucket index.
func (c *calendar) bucketOf(t Time) int {
	day, _ := c.div.DivMod(uint64(t))
	return int(day & uint64(c.mask))
}

// dayOf returns the start of the day that contains t.
func (c *calendar) dayOf(t Time) Time {
	_, r := c.div.DivMod(uint64(t))
	return t - Time(r)
}

// less orders events by (time, sequence).
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// insert links ev, event i, into its sorted bucket; held events wait outside.
func (c *calendar) insert(i int32, ev *Event, held int) {
	c.init()
	steps := c.link(i, ev)
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

// link places ev, event i, into sorted position within its bucket and
// returns the list steps it took. Monotone arrivals append at the tail
// in O(1); out-of-order arrivals walk.
func (c *calendar) link(i int32, ev *Event) (steps int) {
	b := &c.buckets[c.bucketOf(ev.at)]
	tail := c.ev(b.tail) // the reserved record 0 for an empty bucket
	switch {
	case b.head == 0:
		b.head, b.tail = i, i
		ev.next = 0
	case !less(ev, tail):
		tail.next = i
		b.tail = i
		ev.next = 0
	case less(ev, c.ev(b.head)):
		ev.next = b.head
		b.head = i
	default:
		p := c.ev(b.head)
		for p.next != 0 && !less(ev, c.ev(p.next)) {
			p = c.ev(p.next)
			steps++
		}
		ev.next = p.next
		p.next = i
	}
	return steps
}

// headOf purges cancelled events from the front of bucket idx and
// returns the record of its least live event, now its head, or nil
// when it is empty.
func (c *calendar) headOf(idx int) *Event {
	b := &c.buckets[idx]
	for b.head != 0 {
		i := b.head
		ev := c.ev(i)
		if ev.kind != cancelled {
			return ev
		}
		b.head = ev.next
		if b.head == 0 {
			b.tail = 0
		}
		c.nodes--
		c.recycle(i, ev)
	}
	return nil
}

// unlinkHead removes ev, the head of bucket idx, and returns its index.
func (c *calendar) unlinkHead(idx int, ev *Event) int32 {
	b := &c.buckets[idx]
	i := b.head
	b.head = ev.next
	if b.head == 0 {
		b.tail = 0
	}
	c.nodes--
	c.count--
	return i
}

// sweep drops cancelled nodes from every bucket. Called when the dead
// fraction grows large, so heavy Cancel use cannot bloat the buckets
// (a cancelled node in the middle of a chain is otherwise unlinked
// only when it surfaces at a bucket head or during a resize).
func (c *calendar) sweep() {
	for idx := range c.buckets {
		b := &c.buckets[idx]
		var prev int32
		for i := b.head; i != 0; {
			ev := c.ev(i)
			next := ev.next
			if ev.kind == cancelled {
				if prev == 0 {
					b.head = next
				} else {
					c.ev(prev).next = next
				}
				c.nodes--
				c.recycle(i, ev)
			} else {
				prev = i
			}
			i = next
		}
		b.tail = prev
	}
}

// popMin removes and returns the least event with at <= deadline and
// its record, or 0, nil when none exists. With remove=false it only
// peeks.
func (c *calendar) popMin(deadline Time, remove bool) (int32, *Event) {
	if c.count == 0 {
		return 0, nil
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
	if i, ev, conclusive := c.dayWalk(deadline, remove); conclusive {
		return i, ev
	}
	// A whole year passed without a hit: the head of the population is
	// spread far wider than the current day width covers (a handful of
	// events milliseconds apart under a nanosecond-era width). Re-fit
	// the width to it and walk again.
	c.resize(len(c.buckets))
	if i, ev, conclusive := c.dayWalk(deadline, remove); conclusive {
		return i, ev
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
		return 0, nil
	}
	if remove {
		c.day = c.dayOf(best.at)
		c.cur = c.bucketOf(c.day)
		return c.unlinkHead(bestIdx, best), best
	}
	return c.buckets[bestIdx].head, best
}

// dayWalk advances day by day for up to one year looking for the next
// event. The boolean reports whether the walk was conclusive: an
// event found, or the deadline proven unreachable. A false return
// means the year was exhausted and the caller should re-fit the
// calendar geometry.
func (c *calendar) dayWalk(deadline Time, remove bool) (int32, *Event, bool) {
	cur, day := c.cur, c.day
	for i := 0; i <= c.mask; i++ {
		if day > deadline {
			return 0, nil, true
		}
		if c.buckets[cur].head == 0 {
			// An empty day, passed without a call.
		} else if ev := c.headOf(cur); ev != nil && ev.at < day+c.width {
			if ev.at > deadline {
				return 0, nil, true
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
				return c.unlinkHead(cur, ev), ev, true
			}
			return c.buckets[cur].head, ev, true
		}
		cur = (cur + 1) & c.mask
		day += c.width
	}
	return 0, nil, false
}

// resize rebuilds the calendar with n buckets and a day width fitted
// to the spacing of the earliest live events. The calendar is anchored
// at c.day, the day of the last removal: the engine clock never runs
// behind it, so no live event and no later insert can precede it.
func (c *calendar) resize(n int) {
	var all int32
	var hi Time
	// head[:k] holds the k earliest times seen so far, ascending.
	var head [headSample]Time
	k := 0
	for idx := range c.buckets {
		for i := c.buckets[idx].head; i != 0; {
			ev := c.ev(i)
			next := ev.next
			if ev.kind == cancelled {
				c.nodes--
				c.recycle(i, ev)
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
				all = i
			}
			i = next
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
	c.setWidth(width)
	c.resizes++
	c.strain = 0
	c.day = c.dayOf(c.day)
	c.cur = c.bucketOf(c.day)
	for all != 0 {
		ev := c.ev(all)
		next := ev.next
		c.link(all, ev)
		all = next
	}
}
