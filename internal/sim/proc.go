package sim

// This file provides light-weight process-style helpers on top of the
// raw event heap: sequential activities, resources with FIFO queueing,
// and a completion latch. They are what the fabric and node models are
// written against.

// Resource models a unit-capacity server with FIFO queueing (a PCIe
// bus, a gateway buffer). Acquire requests are granted in request
// order; each grant holds the resource for a caller-specified service
// time, after which the next waiter is granted.
type Resource struct {
	eng  *Engine
	name string
	busy bool
	// queue of pending acquisitions; head indexes the next grant so
	// dequeueing is O(1) (the slice is compacted when the dead prefix
	// grows large).
	waiters []waiter
	head    int
	// current grant, carried in fields rather than a closure so the
	// completion event is a typed, allocation-free Handler event.
	curStart Time
	curFn    func(start, end Time)
	// BusyTime accumulates total time the resource was occupied, for
	// utilisation statistics.
	BusyTime Time
	// Grants counts completed service periods.
	Grants uint64
}

// waiter is one queued acquisition.
type waiter struct {
	service Time
	done    func(start, end Time)
}

// NewResource returns an idle resource bound to eng.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.head }

// Acquire requests the resource for the given service time. When the
// request is granted and the service time has elapsed, done is invoked
// with the service start and end times; a nil done just occupies the
// resource. Acquire never blocks; it is event-driven.
func (r *Resource) Acquire(service Time, done func(start, end Time)) {
	if service < 0 {
		panic("sim: negative service time")
	}
	r.waiters = append(r.waiters, waiter{service: service, done: done})
	if !r.busy {
		r.startNext()
	}
}

func (r *Resource) startNext() {
	if r.head == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.head = 0
		r.busy = false
		return
	}
	w := r.waiters[r.head]
	r.waiters[r.head] = waiter{}
	r.head++
	if r.head > 32 && r.head*2 > len(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		r.waiters = r.waiters[:n]
		r.head = 0
	}
	r.busy = true
	start := r.eng.Now()
	end := start + w.service
	r.BusyTime += w.service
	r.Grants++
	r.curStart, r.curFn = start, w.done
	r.eng.Schedule(end, r, 0, 0)
}

// OnEvent implements Handler: the current grant's service time has
// elapsed. The grant callback runs first (it may Acquire again), then
// the next waiter is started — the same order the closure-based
// implementation used, so event sequences are unchanged.
func (r *Resource) OnEvent(end Time, _, _ int64) {
	fn := r.curFn
	r.curFn = nil
	if fn != nil {
		fn(r.curStart, end)
	}
	r.startNext()
}

// Utilisation returns the fraction of [0, now] the resource was busy.
func (r *Resource) Utilisation() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	return float64(r.BusyTime) / float64(r.eng.Now())
}

// Latch is a countdown completion latch: Done must be called n times,
// after which the callback fires (at the virtual time of the last
// Done). It is the simulator-side analogue of sync.WaitGroup.
type Latch struct {
	remaining int
	fn        func()
	fired     bool
}

// NewLatch returns a latch that fires fn after n Done calls. n == 0
// fires immediately upon the first Run-side opportunity; we invoke it
// synchronously for simplicity.
func NewLatch(n int, fn func()) *Latch {
	l := &Latch{remaining: n, fn: fn}
	if n <= 0 {
		l.fired = true
		fn()
	}
	return l
}

// Done decrements the latch. Calling Done more than n times panics:
// it indicates a double-completion bug in the model.
func (l *Latch) Done() {
	if l.fired {
		panic("sim: Latch.Done after latch fired")
	}
	l.remaining--
	if l.remaining == 0 {
		l.fired = true
		l.fn()
	}
}
