package sim

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/rng"
)

// oracleEvent mirrors one scheduled event in the reference model.
type oracleEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

// oracleHeap is the reference priority queue: the exact container/heap
// implementation the calendar queue replaced.
type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// population shapes the events an oracle run schedules.
type population struct {
	name string
	// far events are scheduled up front, uniformly over farSpan.
	far     int
	farSpan Time
	// near events are scheduled up front through pick at time zero.
	near int
	// pick returns the time of an event scheduled at virtual time now.
	pick func(r *rng.Source, now Time) Time
	// hops is how many successors an event scheduled through pick
	// spawns, one per firing — a packet crossing that many more links.
	hops int
}

// uniformMix is the original property-test population: offsets up to a
// microsecond, 30% of events exactly at the current horizon to stress
// same-time ties.
var uniformMix = population{
	name: "uniform",
	pick: func(r *rng.Source, now Time) Time {
		if r.Intn(10) < 3 {
			return now
		}
		return now + Time(r.Intn(1_000_000))
	},
}

// runOracle drives the engine with ops random interleaved
// Schedule/Cancel/peek/pop operations over pop's event population and
// asserts that every peek and every pop matches the container/heap
// oracle — the exact queue the calendar replaced. This is the
// determinism contract the calendar queue must uphold: bucket geometry
// may never change execution order. It returns the drained engine.
func runOracle(t *testing.T, seed uint64, ops int, pop population) *Engine {
	t.Helper()
	r := rng.New(seed)
	e := New()
	var oracle oracleHeap
	type held struct {
		tok Token
		id  int
	}
	var tokens []held
	var oracleByID = map[int]*oracleEvent{}
	var got, want []int

	var handler handlerFunc
	schedule := func(at Time, hops int) {
		id := len(oracleByID)
		tok := e.Schedule(at, handler, int64(id), int64(hops))
		tokens = append(tokens, held{tok: tok, id: id})
		oe := &oracleEvent{at: at, seq: e.seq, id: id}
		oracleByID[id] = oe
		heap.Push(&oracle, oe)
	}
	handler = func(now Time, id, hops int64) {
		got = append(got, int(id))
		if hops > 0 {
			schedule(pop.pick(r, now), int(hops-1))
		}
	}
	// oracleMin discards cancelled entries and returns the oracle's
	// least live event, nil when it is empty.
	oracleMin := func() *oracleEvent {
		for oracle.Len() > 0 && oracle[0].cancelled {
			heap.Pop(&oracle)
		}
		if oracle.Len() == 0 {
			return nil
		}
		return oracle[0]
	}
	step := func() bool {
		oe := oracleMin()
		at, ok := e.NextEventTime()
		if ok != (oe != nil) || (ok && at != oe.at) {
			t.Fatalf("%s seed %d: peek = %v, %v; oracle min %+v", pop.name, seed, at, ok, oe)
		}
		ev := e.cal.popMin(math.MaxInt64, true)
		if ev == nil {
			return false
		}
		heap.Pop(&oracle)
		want = append(want, oe.id)
		e.now = ev.at
		e.executed++
		e.dispatch(ev)
		return true
	}

	for i := 0; i < pop.far; i++ {
		schedule(Time(r.Intn(int(pop.farSpan))), 0)
	}
	for i := 0; i < pop.near; i++ {
		schedule(pop.pick(r, 0), pop.hops)
	}
	// Random mixture of operations, executed between engine steps so
	// scheduling happens both before Run and from inside events.
	for i := 0; i < ops; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			schedule(pop.pick(r, e.Now()), pop.hops)
		case 6, 7: // cancel a random outstanding token
			if len(tokens) == 0 {
				continue
			}
			k := r.Intn(len(tokens))
			hd := tokens[k]
			// The oracle only honours the cancel if the engine did:
			// stale tokens (fired or re-used events) are no-ops.
			if e.Cancel(hd.tok) {
				oracleByID[hd.id].cancelled = true
			}
			tokens = append(tokens[:k], tokens[k+1:]...)
		case 8, 9: // step the engine by a few events
			for s := r.Intn(5) + 1; s > 0 && step(); s-- {
			}
		}
	}
	for step() {
	}
	if len(got) != len(want) {
		t.Fatalf("%s seed %d: engine ran %d events, oracle %d", pop.name, seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: divergence at %d: engine %d, oracle %d", pop.name, seed, i, got[i], want[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%s seed %d: %d events left pending", pop.name, seed, e.Pending())
	}
	return e
}

func TestCalendarMatchesHeapOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99, 424242} {
		runOracle(t, seed, 4000, uniformMix)
	}
}

// TestCalendarSkewedPopulations runs the oracle property over the two
// populations a span-fitted day width handles worst.
func TestCalendarSkewedPopulations(t *testing.T) {
	// The packet fabric's shape: thousands of injection events spread
	// over milliseconds, and a cluster of in-flight packets whose next
	// events all land within half a microsecond of now. Fitting the
	// width to the span (~100 ns between injections) put the whole
	// cluster in a few buckets, and every insert walked their lists.
	cluster := population{
		name: "far-spread+near-cluster",
		far:  20000, farSpan: 2 * Millisecond,
		near: 120, hops: 30,
		pick: func(r *rng.Source, now Time) Time { return now + Time(r.Intn(500_000)+1) },
	}
	// E15's halo exchange: every event of a round shares one instant.
	burst := population{
		name: "equal-timestamp-bursts",
		near: 2000, hops: 3,
		pick: func(_ *rng.Source, now Time) Time { return (now/Microsecond + 1) * Microsecond },
	}
	for _, pop := range []population{cluster, burst} {
		for _, seed := range []uint64{1, 2} {
			e := runOracle(t, seed, 6000, pop)
			// Geometry must track the head of the queue on both sides:
			// inserts walking bucket lists mean days too wide, pops
			// walking empty days mean days too narrow.
			links := float64(e.cal.linkSteps) / float64(e.seq)
			days := float64(e.cal.daySteps) / float64(e.executed)
			t.Logf("%s seed %d: %.2f list steps per insert, %.2f empty days per pop over %d events",
				pop.name, seed, links, days, e.seq)
			if links > 2 || days > 2 {
				t.Errorf("%s seed %d: want <= 2 of each", pop.name, seed)
			}
		}
	}
}

// handlerFunc adapts a function to Handler for tests.
type handlerFunc func(now Time, a0, a1 int64)

func (f handlerFunc) OnEvent(now Time, a0, a1 int64) { f(now, a0, a1) }

// TestPopNondecreasing is the pure invariant check: any interleaving
// of schedules and cancels pops in nondecreasing (time, seq) order.
func TestPopNondecreasing(t *testing.T) {
	r := rng.New(7)
	e := New()
	var lastAt Time
	var lastSeq uint64
	violations := 0
	h := handlerFunc(func(now Time, _, a1 int64) {
		seq := uint64(a1)
		if now < lastAt || (now == lastAt && seq < lastSeq) {
			violations++
		}
		lastAt, lastSeq = now, seq
		// Keep the pot boiling: occasionally schedule more from inside.
		if r.Intn(4) == 0 {
			tok := e.ScheduleAfter(Time(r.Intn(5000)), nil, 0, 0)
			_ = tok
		}
	})
	var tokens []Token
	for i := 0; i < 5000; i++ {
		tok := e.Schedule(Time(r.Intn(1_000_000)), h, 0, 0)
		tokens = append(tokens, Token{ev: tok.ev, seq: tok.seq})
		if len(tokens) > 3 && r.Intn(3) == 0 {
			e.Cancel(tokens[r.Intn(len(tokens))])
		}
	}
	e.Run()
	if violations != 0 {
		t.Fatalf("%d ordering violations", violations)
	}
}

// Fix the nil-handler case: scheduling a nil Handler is legal and the
// event is simply a time marker.
func TestNilHandlerEvent(t *testing.T) {
	e := New()
	e.Schedule(5*Nanosecond, nil, 0, 0)
	if got := e.Run(); got != 5*Nanosecond {
		t.Fatalf("final time %v", got)
	}
}

func TestCancelSemantics(t *testing.T) {
	e := New()
	fired := 0
	h := handlerFunc(func(Time, int64, int64) { fired++ })
	tok := e.Schedule(10*Nanosecond, h, 0, 0)
	if !e.Cancel(tok) {
		t.Fatal("first cancel failed")
	}
	if e.Cancel(tok) {
		t.Fatal("double cancel succeeded")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel", e.Pending())
	}
	e.Run()
	if fired != 0 {
		t.Fatal("cancelled event fired")
	}
	// A token for a fired event must be a no-op even after the
	// underlying Event struct has been recycled and rescheduled.
	tok2 := e.Schedule(20*Nanosecond, h, 0, 0)
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	tok3 := e.Schedule(30*Nanosecond, h, 0, 0)
	if e.Cancel(tok2) {
		t.Fatal("stale token cancelled something")
	}
	if e.Pending() != 1 {
		t.Fatal("stale cancel disturbed the queue")
	}
	e.Cancel(tok3)
}

func TestStatsCounters(t *testing.T) {
	e := New()
	for i := 0; i < 100; i++ {
		e.At(Time(i)*Nanosecond, func() {})
	}
	tok := e.Schedule(200*Nanosecond, nil, 0, 0)
	e.Cancel(tok)
	e.Run()
	st := e.Stats()
	if st.Executed != 100 {
		t.Fatalf("executed = %d", st.Executed)
	}
	if st.Scheduled != 101 {
		t.Fatalf("scheduled = %d", st.Scheduled)
	}
	if st.Cancelled != 1 {
		t.Fatalf("cancelled = %d", st.Cancelled)
	}
	if st.MaxQueueDepth < 100 {
		t.Fatalf("max depth = %d", st.MaxQueueDepth)
	}
	if st.Allocs+st.Reused < 101 {
		t.Fatalf("pool accounting: %+v", st)
	}
	if st.Buckets == 0 || st.BucketWidth == 0 {
		t.Fatalf("calendar geometry unset: %+v", st)
	}
}

// TestFarFutureEvents exercises the year-wrap fallback: events many
// bucket-years ahead must still pop in order.
func TestFarFutureEvents(t *testing.T) {
	e := New()
	var got []Time
	record := func() { got = append(got, e.Now()) }
	e.At(1*Nanosecond, record)
	e.At(10*Second, record)
	e.At(3*Second, record)
	e.At(2*Nanosecond, record)
	e.Run()
	want := []Time{1 * Nanosecond, 2 * Nanosecond, 3 * Second, 10 * Second}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestNextEventTime checks the peek API the cluster coordinator uses.
func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.At(7*Nanosecond, func() {})
	e.At(3*Nanosecond, func() {})
	at, ok := e.NextEventTime()
	if !ok || at != 3*Nanosecond {
		t.Fatalf("next = %v ok=%v", at, ok)
	}
	if e.Pending() != 2 {
		t.Fatal("peek consumed an event")
	}
	e.Run()
}

func BenchmarkSchedulePop(b *testing.B) { benchSchedulePop(b, 0) }

// BenchmarkSchedulePopSkewed is the same churn under 20000 pending
// far-future events spread over two milliseconds — injections waiting
// behind the packets in flight.
func BenchmarkSchedulePopSkewed(b *testing.B) { benchSchedulePop(b, 20000) }

// benchSchedulePop measures steady-state churn: a self-rescheduling
// population of 1024 events, the shape of a busy fabric, in front of
// far idle events the churn never reaches.
func benchSchedulePop(b *testing.B, far int) {
	e := New()
	var h handlerFunc
	r := rng.New(1)
	h = func(Time, int64, int64) {
		e.ScheduleAfter(Time(r.Intn(10_000)+1), h, 0, 0)
	}
	for i := 0; i < far; i++ {
		e.Schedule(Millisecond+Time(r.Intn(int(2*Millisecond))), nil, 0, 0)
	}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(r.Intn(10_000)), h, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.cal.popMin(math.MaxInt64, true)
		e.now = ev.at
		e.dispatch(ev)
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := e.Schedule(e.Now()+Time(i%1000), nil, 0, 0)
		e.Cancel(tok)
	}
}

// TestPeekDoesNotSkipLaterInserts pins a subtle cursor bug: a peek
// (NextEventTime) while the queue's minimum lies far in the future
// must not advance the calendar cursor — the running event may still
// schedule work between now and that minimum, and a moved cursor
// would walk right past it. Any caller that peeks from inside an event
// callback hits exactly this pattern.
func TestPeekDoesNotSkipLaterInserts(t *testing.T) {
	e := New()
	var order []Time
	e.At(1*Microsecond, func() {
		// A far-future event is pending (scheduled below); peek at it,
		// then schedule something much nearer.
		if at, ok := e.NextEventTime(); !ok || at != 50*Millisecond {
			t.Errorf("peek = %v, %v", at, ok)
		}
		e.After(3*Microsecond, func() { order = append(order, e.Now()) })
	})
	e.At(50*Millisecond, func() { order = append(order, e.Now()) })
	e.Run()
	if len(order) != 2 || order[0] != 4*Microsecond || order[1] != 50*Millisecond {
		t.Fatalf("execution order corrupted by peek: %v", order)
	}
}

// TestPeekInterleavedOracle re-runs the heap-oracle property with a
// NextEventTime peek injected before every pop.
func TestPeekInterleavedOracle(t *testing.T) {
	r := rng.New(2026)
	e := New()
	var got []Time
	var h handlerFunc
	h = func(now Time, depth, _ int64) {
		got = append(got, now)
		if depth < 3 {
			n := r.Intn(3)
			for i := 0; i < n; i++ {
				// Mix near and far horizons so peeks cross years.
				var d Time
				if r.Intn(2) == 0 {
					d = Time(r.Intn(1000))
				} else {
					d = Time(r.Intn(100_000_000))
				}
				e.ScheduleAfter(d, h, depth+1, 0)
			}
		}
		e.NextEventTime()
	}
	for i := 0; i < 500; i++ {
		e.Schedule(Time(r.Intn(1_000_000)), h, 0, 0)
		if i%3 == 0 {
			e.NextEventTime()
		}
	}
	e.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out-of-order execution at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// TestCalendarTwoInstantBurst is E15's halo exchange at full size:
// 300 000 events at one instant and 300 000 at a second. No geometry
// can spread such a population, so the calendar must not chase it —
// while the burst is live the buckets are rebuilt at most twice (not
// once per doubling from 64 to 2^18), inserts do not walk, and the pop
// order is the (time, sequence) order of a heap. Two shapes: the
// second instant scheduled by the first's events as they fire (what a
// fabric does), and both instants interleaved up front inside one
// initial day (the worst case: every early insert walks the bucket the
// two instants share until the calendar separates them).
func TestCalendarTwoInstantBurst(t *testing.T) {
	const n = 300_000
	for _, interleaved := range []bool{false, true} {
		e := New()
		a, b := Microsecond+10*Nanosecond, Microsecond+60*Nanosecond
		var got []int64
		var h handlerFunc
		h = func(now Time, id, _ int64) {
			got = append(got, id)
			if !interleaved && now == a {
				e.Schedule(b, h, n+id, 0)
			}
		}
		for i := int64(0); i < n; i++ {
			e.Schedule(a, h, i, 0)
			if interleaved {
				e.Schedule(b, h, n+i, 0)
			}
		}
		e.RunUntil(a)
		if e.Pending() != n {
			t.Fatalf("interleaved=%v: %d events pending after the first instant, want %d", interleaved, e.Pending(), n)
		}
		if r := e.cal.resizes; r > 2 {
			t.Errorf("interleaved=%v: %d calendar rebuilds under a two-instant burst, want <= 2", interleaved, r)
		}
		e.Run()
		if per := float64(e.cal.linkSteps) / float64(e.seq); per > 0.01 {
			t.Errorf("interleaved=%v: %.3f list steps per insert, want ~0", interleaved, per)
		}
		if len(got) != 2*n {
			t.Fatalf("interleaved=%v: %d events ran, want %d", interleaved, len(got), 2*n)
		}
		for i, id := range got {
			if id != int64(i) {
				t.Fatalf("interleaved=%v: event %d ran at position %d", interleaved, id, i)
			}
		}
	}
}
