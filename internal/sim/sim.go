// Package sim implements the discrete-event simulation kernel that
// underlies the DEEP hardware models (fabrics, NICs, nodes).
//
// The kernel is a calendar-queue simulator: callbacks are scheduled at
// absolute virtual times and executed in nondecreasing time order.
// Ties are broken by schedule order (a monotonically increasing
// sequence number), which makes every run fully deterministic. Events
// are pointer-free records in pooled pages, linked and recycled by
// index, and hot models dispatch through a registered handler Kind, so
// the GC never walks the queue and the steady state allocates nothing.
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

// Kind names a Handler in an engine's handler table: one Register
// added, or as ^slot the callback of one pending closure or
// interface-form event.
type Kind int32

const cancelled Kind = math.MinInt32 // the kind of a revoked event not yet unlinked

// Event is one scheduled occurrence: a value record in the engine's
// event pages, holding no pointer, so the GC never walks the queue and
// linking an event fires no write barrier. Models hold only Tokens.
type Event struct {
	at     Time
	seq    uint64 // 0 while the record is free
	a0, a1 int64
	next   int32 // bucket chain or free list; 0 ends both
	kind   Kind
}

// Token identifies a scheduled event for cancellation. The zero Token
// is inert. Tokens remain safe to Cancel after the event has fired: no
// two events of an engine share a sequence number (Feed reserves its
// numbers ahead, it never reuses them), so a stale Token cannot match
// the event a recycled record carries next. (This is also why records
// are per-engine: a Token means nothing to another engine.)
type Token struct {
	idx int32
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
// threaded through idle records, touched only by the engine's own
// thread. A record holding an event never migrates across engines (the
// Token safety contract relies on that): only an idle engine hands its
// pages on, every record on them blank. The list is bounded by the
// queue's high-water mark, and the hit rate Stats reports is
// deterministic per engine — the same event sequence reuses the same
// indices whatever the host, the GC or other goroutines do.
type Engine struct {
	now Time
	seq uint64
	cal calendar
	fed int // events Feed has scheduled but not yet queued

	executed  uint64
	cancelled uint64
	reused    uint64

	// handlers is the table kinds index: the Handlers registered for
	// good, and the callbacks of pending closure and interface-form
	// events, one slot each, reused LIFO through free.
	handlers []Handler
	free     []int32

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
		Allocs:        uint64(e.cal.peak),
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
func (e *Engine) schedule(t Time, seq uint64, k Kind, a0, a1 int64) Token {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if seq == 0 {
		e.seq++
		seq = e.seq
	}
	i, ev := e.cal.reuse()
	if i == 0 {
		i, ev = e.cal.fresh()
	}
	if i <= e.cal.peak {
		e.reused++
	} else {
		e.cal.peak = i
	}
	ev.at, ev.seq, ev.kind, ev.a0, ev.a1 = t, seq, k, a0, a1
	e.cal.insert(i, ev, e.fed)
	return Token{idx: i, seq: seq}
}

// funcHandler adapts a closure to Handler.
type funcHandler func()

func (f funcHandler) OnEvent(Time, int64, int64) { f() }

// hold puts h in a free handler slot and returns the kind that frees
// it again when its event fires or is cancelled.
func (e *Engine) hold(h Handler) Kind {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free, e.handlers[s] = e.free[:n-1], h
		return ^Kind(s)
	}
	e.handlers = append(e.handlers, h)
	return ^Kind(len(e.handlers) - 1)
}

// unhold frees held kind k's slot, which must not pin the callback.
func (e *Engine) unhold(k Kind) {
	e.handlers[^k] = nil
	e.free = append(e.free, int32(^k))
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering
// events would destroy causality.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, 0, e.hold(funcHandler(fn)), 0, 0)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Schedule is the allocation-free form of At: h.OnEvent(t, a0, a1)
// runs at absolute time t. The returned Token cancels it.
func (e *Engine) Schedule(t Time, h Handler, a0, a1 int64) Token {
	return e.schedule(t, 0, e.hold(h), a0, a1)
}

// Register adds h to the handler table for good and returns its Kind:
// the hot path, whose events hold nothing but their record.
func (e *Engine) Register(h Handler) Kind { return ^e.hold(h) }

// ScheduleKind is Schedule for the Handler registered as k.
func (e *Engine) ScheduleKind(t Time, k Kind, a0, a1 int64) Token {
	return e.schedule(t, 0, k, a0, a1)
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
		f.e.schedule(f.times[i], f.base+1+uint64(i), f.e.hold(f), int64(i), 0)
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
	if tok.idx <= 0 || tok.idx >= e.cal.used {
		return false
	}
	ev := e.cal.ev(tok.idx)
	if ev.seq != tok.seq || ev.kind == cancelled {
		return false
	}
	if ev.kind < 0 {
		e.unhold(ev.kind)
	}
	ev.kind = cancelled
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
	if _, ev := e.cal.popMin(math.MaxInt64, false); ev != nil {
		return ev.at, true
	}
	return 0, false
}

// SetProbe installs fn as the clock-advance observer (nil removes
// it). The probe fires once per dispatched event, after the clock
// moves to the event's time and before its callback runs. With no
// probe installed the cost is one predictable branch per event.
func (e *Engine) SetProbe(fn func(now Time)) { e.probe = fn }

// dispatch advances the clock to popped event i, record ev, recycles
// the record and runs the event.
func (e *Engine) dispatch(i int32, ev *Event) {
	t, k, a0, a1 := ev.at, ev.kind, ev.a0, ev.a1
	e.cal.recycle(i, ev)
	e.now = t
	if e.probe != nil {
		e.probe(t)
	}
	e.executed++
	h := e.handlers[max(k, ^k)] // k registered, ^k held
	if k < 0 {
		e.unhold(k)
	}
	if h != nil {
		h.OnEvent(t, a0, a1)
	}
}

// Run executes events until the queue is empty.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	e.RunWindow(math.MaxInt64)
	return e.now
}

// RunUntil executes events with time <= deadline and then returns. The
// clock is advanced to the deadline even if the queue drains early, so
// periodic models can be stepped at a fixed cadence.
func (e *Engine) RunUntil(deadline Time) Time {
	e.RunWindow(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunWindow executes events with time <= deadline and returns the
// number executed. Unlike RunUntil it leaves the clock at the last
// executed event rather than advancing it to the deadline, so a
// coordinator can still inject events anywhere inside the remainder of
// the window — the contract the conservative parallel Cluster needs.
// Every run form ends here, where an idle engine trims its pages.
func (e *Engine) RunWindow(deadline Time) uint64 {
	var n uint64
	for {
		i, ev := e.cal.popMin(deadline, true)
		if i == 0 {
			break
		}
		n++
		e.dispatch(i, ev)
	}
	e.cal.trim()
	return n
}
