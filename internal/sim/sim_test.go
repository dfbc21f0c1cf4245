package sim

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("final time %v, want 30ns", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order violated: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var fired []Time
	e.At(1*Nanosecond, func() {
		e.After(2*Nanosecond, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 1 || fired[0] != 3*Nanosecond {
		t.Fatalf("nested event fired at %v", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*Microsecond, func() { count++ })
	}
	e.RunUntil(4 * Microsecond)
	if count != 4 {
		t.Fatalf("RunUntil executed %d, want 4", count)
	}
	if e.Now() != 4*Microsecond {
		t.Fatalf("now = %v, want 4us", e.Now())
	}
	// Clock advances to deadline even with empty queue.
	e2 := New()
	e2.RunUntil(7 * Second)
	if e2.Now() != 7*Second {
		t.Fatalf("empty RunUntil now = %v", e2.Now())
	}
}

func TestHeapOrderingProperty(t *testing.T) {
	// Property: for any set of delays, execution times are nondecreasing.
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%100) + 1
		r := rng.New(seed)
		e := New()
		var times []Time
		for i := 0; i < n; i++ {
			at := Time(r.Intn(1000)) * Nanosecond
			e.At(at, func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Second, "2.000s"},
		{3 * Millisecond, "3.000ms"},
		{42 * Nanosecond, "42.000ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1e-6); got != Microsecond {
		t.Fatalf("FromSeconds(1e-6) = %v", got)
	}
	if got := FromSeconds(2.5); got != 2*Second+500*Millisecond {
		t.Fatalf("FromSeconds(2.5) = %v", got)
	}
}

func TestResourceFIFOAndUtilisation(t *testing.T) {
	e := New()
	r := NewResource(e, "link")
	var order []int
	var ends []Time
	for i := 0; i < 3; i++ {
		i := i
		r.Acquire(10*Nanosecond, func(start, end Time) {
			order = append(order, i)
			ends = append(ends, end)
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("service order %v", order)
	}
	for i, want := range []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond} {
		if ends[i] != want {
			t.Fatalf("end[%d] = %v, want %v", i, ends[i], want)
		}
	}
	if r.Utilisation() != 1.0 {
		t.Fatalf("utilisation = %v, want 1.0", r.Utilisation())
	}
	if r.Grants != 3 {
		t.Fatalf("grants = %d", r.Grants)
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := New()
	r := NewResource(e, "bus")
	r.Acquire(10*Nanosecond, nil)
	e.At(50*Nanosecond, func() {
		r.Acquire(10*Nanosecond, nil)
	})
	e.Run()
	if e.Now() != 60*Nanosecond {
		t.Fatalf("final time %v", e.Now())
	}
	if got := r.Utilisation(); got < 0.32 || got > 0.35 {
		t.Fatalf("utilisation = %v, want 1/3", got)
	}
}

func TestLatch(t *testing.T) {
	fired := false
	l := NewLatch(3, func() { fired = true })
	l.Done()
	l.Done()
	if fired {
		t.Fatal("latch fired early")
	}
	l.Done()
	if !fired {
		t.Fatal("latch did not fire")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Done after fire did not panic")
		}
	}()
	l.Done()
}

func TestLatchZero(t *testing.T) {
	fired := false
	NewLatch(0, func() { fired = true })
	if !fired {
		t.Fatal("zero latch did not fire immediately")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := New()
		r := rng.New(1234)
		var times []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 6 {
				return
			}
			n := r.Intn(3) + 1
			for i := 0; i < n; i++ {
				e.After(Time(r.Intn(100)+1)*Nanosecond, func() {
					times = append(times, e.Now())
					spawn(depth + 1)
				})
			}
		}
		spawn(0)
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkEngine(b *testing.B) {
	e := New()
	var pump func()
	n := 0
	pump = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, pump)
		}
	}
	e.After(Nanosecond, pump)
	b.ResetTimer()
	e.Run()
}

// TestResourceClosureAndNilShareFIFO pins that a closure grant and a
// nil callback are one queue: grants happen in request order whatever
// form each request took.
func TestResourceClosureAndNilShareFIFO(t *testing.T) {
	e := New()
	r := NewResource(e, "link")
	var order []int64
	var starts []Time
	closure := func(id int64) func(start, end Time) {
		return func(start, end Time) {
			if end-start != 10*Nanosecond {
				t.Errorf("request %d: served %v..%v", id, start, end)
			}
			order = append(order, id)
			starts = append(starts, start)
		}
	}
	r.Acquire(10*Nanosecond, closure(0))
	r.Acquire(10*Nanosecond, closure(1))
	r.Acquire(10*Nanosecond, nil) // occupies the resource, reports nothing
	r.Acquire(10*Nanosecond, closure(3))
	r.Acquire(10*Nanosecond, closure(4))
	r.Acquire(10*Nanosecond, nil)
	r.Acquire(10*Nanosecond, closure(6))
	if got := e.Run(); got != 70*Nanosecond {
		t.Fatalf("finished at %v, want 70ns", got)
	}
	wantOrder := []int64{0, 1, 3, 4, 6}
	wantStarts := []Time{0, 10 * Nanosecond, 30 * Nanosecond, 40 * Nanosecond, 60 * Nanosecond}
	if len(order) != len(wantOrder) {
		t.Fatalf("grant order %v, want %v", order, wantOrder)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] || starts[i] != wantStarts[i] {
			t.Fatalf("grants %v at %v, want %v at %v", order, starts, wantOrder, wantStarts)
		}
	}
	if r.Grants != 7 || r.BusyTime != 70*Nanosecond {
		t.Fatalf("grants %d busy %v", r.Grants, r.BusyTime)
	}
}

// TestFreeListBoundedAndClean checks the engine-owned free list: it
// never outgrows the queue's high-water mark, reuse is a function of
// the event sequence alone, a parked event pins no callback, and the
// drained engine keeps one page of blank records.
func TestFreeListBoundedAndClean(t *testing.T) {
	run := func() (*Engine, Stats) {
		e := New()
		r := rng.New(5)
		var h handlerFunc
		h = func(_ Time, depth, _ int64) {
			for i := r.Intn(3); i > 0 && depth < 6; i-- {
				e.ScheduleAfter(Time(r.Intn(1000)), h, depth+1, 0)
			}
		}
		for i := 0; i < 500; i++ {
			e.Schedule(Time(r.Intn(100_000)), h, 0, 0)
			e.At(Time(r.Intn(100_000)), func() {})
		}
		e.SetProbe(func(Time) {
			n := 0
			for i := e.cal.free; i != 0; i = e.cal.ev(i).next {
				if ev := *e.cal.ev(i); ev != (Event{next: ev.next}) {
					t.Fatalf("free event %d still carries state: %+v", n, ev)
				}
				n++
			}
			if n > e.cal.maxDepth {
				t.Fatalf("free list holds %d events, queue never held more than %d", n, e.cal.maxDepth)
			}
		})
		e.Run()
		return e, e.Stats()
	}
	e, st := run()
	if st.Allocs > uint64(st.MaxQueueDepth) || st.Allocs <= PageLen {
		t.Fatalf("%d events allocated for a queue at most %d deep, want more than a page and no more than the depth",
			st.Allocs, st.MaxQueueDepth)
	}
	if e.cal.recs.Len() != PageLen || e.cal.free != 0 || e.cal.used != 1 {
		t.Fatalf("drained engine kept room for %d events, free list head %d, %d indices issued: want one page, none",
			e.cal.recs.Len(), e.cal.free, e.cal.used)
	}
	for i := int32(0); i < PageLen; i++ {
		if ev := *e.cal.ev(i); ev != (Event{next: ev.next}) {
			t.Fatalf("kept event %d still carries state: %+v", i, ev)
		}
	}
	if len(e.free) != len(e.handlers) {
		t.Fatalf("%d of %d handler slots free after the drain", len(e.free), len(e.handlers))
	}
	for s, h := range e.handlers {
		if h != nil {
			t.Fatalf("free handler slot %d still pins a callback", s)
		}
	}
	if _, again := run(); again.Allocs != st.Allocs || again.Reused != st.Reused {
		t.Fatalf("pool counters differ between identical runs: %+v vs %+v", st, again)
	}
}

// TestIdleEngineHandsBackPages runs bursts that drain in between: each
// drain hands the pages past the first back, yet Allocs and Reused
// count as if the engine had kept them (Allocs is the peak number of
// records, every other schedule a reuse), and a Token from before a
// drain cancels nothing after it.
func TestIdleEngineHandsBackPages(t *testing.T) {
	e := New()
	var fired int
	h := handlerFunc(func(Time, int64, int64) { fired++ })
	var stale []Token
	for _, b := range []struct {
		n              int
		allocs, reused uint64
	}{{1000, 1000, 0}, {600, 1000, 600}, {1200, 1200, 1600}} {
		var toks []Token
		for i := 0; i < b.n; i++ {
			toks = append(toks, e.ScheduleAfter(Time(i), h, 0, 0))
		}
		for _, tok := range stale {
			if e.Cancel(tok) {
				t.Fatalf("token %+v from before the drain cancelled a later event", tok)
			}
		}
		e.Run()
		if st := e.Stats(); st.Allocs != b.allocs || st.Reused != b.reused {
			t.Fatalf("after a burst of %d: allocs %d reused %d, want %d and %d", b.n, st.Allocs, st.Reused, b.allocs, b.reused)
		}
		if e.cal.recs.Len() != PageLen {
			t.Fatalf("idle engine kept room for %d events, want one page", e.cal.recs.Len())
		}
		stale = toks
	}
	if fired != 2800 {
		t.Fatalf("%d events fired, want 2800", fired)
	}
}

// TestRecordsArePointerFree fails on any Event field the GC would have
// to walk: with a pointer, slice, map, func, interface, chan or string
// in it, every event page becomes scanned memory and every link a
// write barrier.
func TestRecordsArePointerFree(t *testing.T) {
	if bad := gcFields(reflect.TypeOf(Event{}), "Event"); len(bad) > 0 {
		t.Fatalf("event record holds GC-visible fields: %v", bad)
	}
}

// gcFields lists the fields of typ, recursively, that the GC walks.
func gcFields(typ reflect.Type, path string) []string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Func, reflect.Interface, reflect.Chan, reflect.String:
		return []string{path + " " + typ.String()}
	case reflect.Array:
		return gcFields(typ.Elem(), path+"[]")
	case reflect.Struct:
		var bad []string
		for i := 0; i < typ.NumField(); i++ {
			bad = append(bad, gcFields(typ.Field(i).Type, path+"."+typ.Field(i).Name)...)
		}
		return bad
	}
	return nil
}
