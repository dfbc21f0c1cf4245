// Package sim implements the discrete-event simulation kernel that
// underlies the DEEP hardware models (fabrics, NICs, nodes).
//
// The kernel is a calendar-queue simulator: callbacks are scheduled at
// absolute virtual times and executed in nondecreasing time order.
// Ties are broken by schedule order (a monotonically increasing
// sequence number), which makes every run fully deterministic. Events
// are recycled through an engine-owned free list, and hot models can
// schedule typed Handler events instead of closures, so the
// steady-state event loop allocates nothing.
//
// Virtual time is kept as integer picoseconds so that latencies in the
// nanosecond range and bandwidths in the GB/s range can be combined
// without floating-point drift.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is a virtual time stamp in picoseconds since simulation start.
type Time int64

// Common durations, as multiples of the picosecond base unit.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos returns t expressed in nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String renders t with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanos())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromSeconds converts a float64 second count into a Time, rounding to
// the nearest picosecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// Handler is the typed event callback: hot models implement it once
// and carry per-event context in the two integer arguments, avoiding a
// heap-allocated closure per event.
type Handler interface {
	// OnEvent runs at virtual time now with the arguments the event
	// was scheduled with.
	OnEvent(now Time, a0, a1 int64)
}

// Event is one scheduled occurrence. Events are owned by the engine's
// free list; models hold only Tokens.
type Event struct {
	at  Time
	seq uint64
	// Exactly one of fn (closure form) and h (typed form) is set.
	fn     func()
	h      Handler
	a0, a1 int64

	next      *Event // bucket chain
	queued    bool
	cancelled bool
}

// Token identifies a scheduled event for cancellation. The zero Token
// is inert. Tokens remain safe to Cancel after the event has fired:
// the sequence number check makes stale cancellations no-ops. (This
// is also why the event free list is per-engine: a recycled Event can
// only be re-issued by the same engine with a strictly larger
// sequence number, so a stale Token can never alias a live event.)
type Token struct {
	ev  *Event
	seq uint64
}

// Stats is a snapshot of the scheduler's counters.
type Stats struct {
	// Executed counts dispatched events; Scheduled counts every
	// schedule call; Cancelled counts successful Cancel calls.
	Executed  uint64
	Scheduled uint64
	Cancelled uint64
	// MaxQueueDepth is the high-water mark of pending events.
	MaxQueueDepth int
	// Allocs counts events that came from the allocator, Reused those
	// recycled through the free list: Reused/(Allocs+Reused) is the
	// pool hit rate. Both are pure functions of the event sequence.
	Allocs uint64
	Reused uint64
	// Buckets and BucketWidth describe the current calendar geometry;
	// Resizes counts geometry adaptations.
	Buckets     int
	BucketWidth Time
	Resizes     uint64
	// LinkSteps totals the list steps inserts walked, DaySteps the
	// empty days pops walked past: the calendar's cost beyond O(1).
	LinkSteps, DaySteps uint64
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
// Engine is not safe for concurrent use: models interact with it only
// from inside event callbacks (or before Run).
//
// Events come from a free list the engine's calendar owns: a stack
// threaded through idle events, touched only by the engine's own
// thread. Events therefore never migrate across engines (the Token
// safety contract relies on that), the list is bounded by the queue's
// high-water mark, and the hit rate Stats reports is deterministic per
// engine — the same event sequence reuses the same events whatever
// the host, the GC or other goroutines do.
type Engine struct {
	now     Time
	seq     uint64
	cal     calendar
	stopped bool
	fed     int // events Feed has scheduled but not yet queued

	executed  uint64
	cancelled uint64
	allocs    uint64
	reused    uint64

	// probe, when set, observes the clock advancing: it runs before
	// each event dispatches, with the new current time. It must not
	// schedule or cancel events — it exists so the observability layer
	// can sample state without ever entering the event queue (a real
	// tick event would perturb the event counts and the makespan).
	probe func(now Time)
}

// New returns an empty Engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return e.cal.count + e.fed }

// Stats returns the scheduler's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Executed:      e.executed,
		Scheduled:     e.seq,
		Cancelled:     e.cancelled,
		MaxQueueDepth: e.cal.maxDepth,
		Allocs:        e.allocs,
		Reused:        e.reused,
		Buckets:       len(e.cal.buckets),
		BucketWidth:   e.cal.width,
		Resizes:       e.cal.resizes,
		LinkSteps:     e.cal.linkSteps,
		DaySteps:      e.cal.daySteps,
	}
}

// schedule pulls an event from the free list and queues it under seq,
// or under the next sequence number when seq is 0.
func (e *Engine) schedule(t Time, seq uint64, fn func(), h Handler, a0, a1 int64) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if seq == 0 {
		e.seq++
		seq = e.seq
	}
	ev := e.cal.reuse()
	if ev != nil {
		e.reused++
	} else {
		ev = e.cal.slab.New()
		e.allocs++
	}
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	ev.h = h
	ev.a0, ev.a1 = a0, a1
	ev.queued = true
	e.cal.insert(ev, e.fed)
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering
// events would destroy causality.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, 0, fn, nil, 0, 0)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Schedule is the typed, allocation-free form of At: h.OnEvent(t, a0,
// a1) runs at absolute time t. The returned Token cancels it.
func (e *Engine) Schedule(t Time, h Handler, a0, a1 int64) Token {
	ev := e.schedule(t, 0, nil, h, a0, a1)
	return Token{ev: ev, seq: ev.seq}
}

// Feed is exactly Schedule(times[i], h, int64(i), 0) for i = 0, 1, ...
// in turn, except that only the earliest fed event not yet fired sits
// in the calendar; firing it queues the next. The sequence numbers are
// reserved now, so fed events tie as the eager loop's would, and
// Pending and Stats count the waiting ones. Do not modify times after.
func (e *Engine) Feed(times []Time, h Handler) {
	if len(times) == 0 {
		return
	}
	if t := slices.Min(times); t < e.now {
		panic(fmt.Sprintf("sim: feeding event at %v before now %v", t, e.now))
	}
	f := &feed{e: e, h: h, times: times, order: byTime(times), base: e.seq}
	e.seq += uint64(len(times))
	e.fed += len(times)
	f.next()
}

// feed is the state of one Feed call.
type feed struct {
	e     *Engine
	h     Handler
	times []Time
	order []int // indices not yet queued, in (time, index) order
	base  uint64
}

// next queues the earliest fed event not yet queued, if any.
func (f *feed) next() {
	if len(f.order) > 0 {
		i := f.order[0]
		f.order = f.order[1:]
		f.e.fed--
		f.e.schedule(f.times[i], f.base+1+uint64(i), nil, f, int64(i), 0)
	}
}

// OnEvent queues the successor first: the handler sees the eager queue.
func (f *feed) OnEvent(now Time, i, _ int64) {
	f.next()
	f.h.OnEvent(now, i, 0)
}

// byTime returns the indices of times (none negative) in (time, index)
// order: a stable LSD radix sort, a byte a pass.
func byTime(times []Time) []int {
	order, tmp := make([]int, len(times)), make([]int, len(times))
	for i := range order {
		order[i] = i
	}
	for shift, hi := 0, uint64(slices.Max(times)); shift < 64 && hi>>shift != 0; shift += 8 {
		var at [256]int // counts of each digit, then its next slot
		for _, i := range order {
			at[byte(uint64(times[i])>>shift)]++
		}
		for d, sum := 0, 0; d < 256; d++ {
			at[d], sum = sum, sum+at[d]
		}
		for _, i := range order {
			d := byte(uint64(times[i]) >> shift)
			tmp[at[d]] = i
			at[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// ScheduleAfter is Schedule relative to the current time.
func (e *Engine) ScheduleAfter(d Time, h Handler, a0, a1 int64) Token {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, h, a0, a1)
}

// Cancel revokes a scheduled event. It reports whether the event was
// still pending; cancelling an already-fired or already-cancelled
// event is a safe no-op.
func (e *Engine) Cancel(tok Token) bool {
	ev := tok.ev
	if ev == nil || !ev.queued || ev.cancelled || ev.seq != tok.seq {
		return false
	}
	ev.cancelled = true
	e.cal.count--
	e.cancelled++
	if e.cal.nodes > 2*e.cal.count+64 {
		e.cal.sweep()
	}
	return true
}

// NextEventTime returns the virtual time of the next pending event.
// The fabric's flow fast path uses it to prove that a transfer cannot
// be disturbed before it completes.
func (e *Engine) NextEventTime() (Time, bool) {
	ev := e.cal.popMin(math.MaxInt64, false)
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Stop makes Run return after the current event completes. Pending
// events stay queued; Run can be called again to continue.
func (e *Engine) Stop() { e.stopped = true }

// SetProbe installs fn as the clock-advance observer (nil removes
// it). The probe fires once per dispatched event, after the clock
// moves to the event's time and before its callback runs. With no
// probe installed the cost is one predictable branch per event.
func (e *Engine) SetProbe(fn func(now Time)) { e.probe = fn }

// dispatch runs one popped event and recycles it.
func (e *Engine) dispatch(ev *Event) {
	fn, h, a0, a1, t := ev.fn, ev.h, ev.a0, ev.a1, ev.at
	e.cal.recycle(ev)
	if fn != nil {
		fn()
	} else if h != nil {
		h.OnEvent(t, a0, a1)
	}
}

// Run executes events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped {
		ev := e.cal.popMin(math.MaxInt64, true)
		if ev == nil {
			break
		}
		e.now = ev.at
		if e.probe != nil {
			e.probe(e.now)
		}
		e.executed++
		e.dispatch(ev)
	}
	return e.now
}

// RunUntil executes events with time <= deadline and then returns. The
// clock is advanced to the deadline even if the queue drains early, so
// periodic models can be stepped at a fixed cadence.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		ev := e.cal.popMin(deadline, true)
		if ev == nil {
			break
		}
		e.now = ev.at
		if e.probe != nil {
			e.probe(e.now)
		}
		e.executed++
		e.dispatch(ev)
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunWindow executes events with time <= deadline and returns the
// number executed. Unlike RunUntil it leaves the clock at the last
// executed event rather than advancing it to the deadline, so a
// coordinator can still inject events anywhere inside the remainder of
// the window — the contract the conservative parallel Cluster needs.
func (e *Engine) RunWindow(deadline Time) uint64 {
	e.stopped = false
	var n uint64
	for !e.stopped {
		ev := e.cal.popMin(deadline, true)
		if ev == nil {
			break
		}
		e.now = ev.at
		if e.probe != nil {
			e.probe(e.now)
		}
		e.executed++
		n++
		e.dispatch(ev)
	}
	return n
}
