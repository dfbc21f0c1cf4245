package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
)

// feedModel is a seeded random model whose injection streams go in
// either eagerly, one Schedule per event, or through Feed. Everything
// else it does is the same, so the two forms must dispatch the same
// events in the same order and see the same queue while doing it.
type feedModel struct {
	e      *Engine
	r      *rng.Source // handler decisions, drawn in dispatch order
	fed    bool
	times  [][]Time // stream s's injection times
	toks   []Token
	budget int // events the handlers may still add
	stopAt uint64
	trace  []string
}

// stream is the handler of injection stream s; extra that of the
// events the handlers add.
type stream struct {
	m *feedModel
	s int
}

type extra struct{ m *feedModel }

func (h stream) OnEvent(now Time, a0, a1 int64) { h.m.fire(fmt.Sprint("s", h.s), now, a0, a1) }
func (h extra) OnEvent(now Time, a0, a1 int64)  { h.m.fire("x", now, a0, a1) }

// inject adds stream s, eagerly or fed.
func (m *feedModel) inject(s int) {
	h := stream{m, s}
	if m.fed {
		m.e.Feed(m.times[s], h)
		return
	}
	for i, t := range m.times[s] {
		m.e.Schedule(t, h, int64(i), 0)
	}
}

// fire records the dispatch with the queue it sees, then reacts: it
// schedules an event at exactly a later injection time (where it must
// run after that injection), a near-future one, or cancels one.
func (m *feedModel) fire(tag string, now Time, a0, a1 int64) {
	next, ok := m.e.NextEventTime()
	m.trace = append(m.trace, fmt.Sprintf("%s@%d a0=%d a1=%d pending=%d next=%d,%v",
		tag, now, a0, a1, m.e.Pending(), next, ok))
	if m.e.Executed() == m.stopAt {
		m.e.Stop()
	}
	if m.budget == 0 {
		return
	}
	m.budget--
	switch m.r.Intn(4) {
	case 0:
		ts := m.times[m.r.Intn(len(m.times))]
		if len(ts) > 0 {
			if t := ts[m.r.Intn(len(ts))]; t >= now {
				m.toks = append(m.toks, m.e.Schedule(t, extra{m}, int64(m.budget), 1))
			}
		}
	case 1:
		m.toks = append(m.toks, m.e.ScheduleAfter(Time(m.r.Intn(5)), extra{m}, int64(m.budget), 2))
	case 2:
		if len(m.toks) > 0 {
			m.e.Cancel(m.toks[m.r.Intn(len(m.toks))])
		}
	}
}

// runFeedModel runs one seeded scenario. Streams 0 and 1 are injected
// before the run with events scheduled between them; mode picks how
// the run is driven: straight through, stopped half-way, cut by
// RunUntil or RunWindow, or cut by RunUntil with stream 2 injected at
// the cut. It returns the trace and the counters that must not depend
// on the injection form.
func runFeedModel(seed uint64, mode int, fed bool) ([]string, Stats) {
	r := rng.New(seed)
	// Small time ranges give many duplicate times; a scale spreads
	// them over several bytes of the radix sort.
	scale := []Time{1, 1 << 12, 1 << 30}[r.Intn(3)]
	m := &feedModel{e: New(), fed: fed, budget: 150}
	for s := 0; s < 3; s++ {
		ts := make([]Time, r.Intn(60))
		for i := range ts {
			ts[i] = Time(r.Intn(40)) * scale
			if s == 2 {
				ts[i] += 20 * scale
			}
		}
		m.times = append(m.times, ts)
	}
	m.r = rng.New(seed + 1)
	m.inject(0)
	for i := r.Intn(10); i > 0; i-- {
		m.toks = append(m.toks, m.e.Schedule(Time(r.Intn(40))*scale, extra{m}, int64(i), 3))
	}
	m.inject(1)
	mid := 20 * scale
	switch mode {
	case 1:
		m.stopAt = uint64(len(m.times[0])+len(m.times[1])) / 2
		m.e.Run()
	case 2:
		m.e.RunUntil(mid)
	case 3:
		m.e.RunWindow(mid)
	case 4:
		m.e.RunUntil(mid)
		m.inject(2)
	}
	m.trace = append(m.trace, fmt.Sprintf("cut at %d pending=%d", m.e.Now(), m.e.Pending()))
	m.e.Run()
	m.trace = append(m.trace, fmt.Sprintf("end at %d pending=%d", m.e.Now(), m.e.Pending()))
	return m.trace, scheduleStats(m.e.Stats())
}

// scheduleStats keeps the counters Feed must reproduce. Allocs and
// Reused move (a fed stream reuses one event), and so does the
// calendar geometry, which is fitted to the events actually queued.
func scheduleStats(st Stats) Stats {
	return Stats{Executed: st.Executed, Scheduled: st.Scheduled,
		Cancelled: st.Cancelled, MaxQueueDepth: st.MaxQueueDepth}
}

func TestFeedMatchesEagerSchedule(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for mode := 0; mode < 5; mode++ {
			wantTrace, wantStats := runFeedModel(seed, mode, false)
			gotTrace, gotStats := runFeedModel(seed, mode, true)
			if i := firstDiff(gotTrace, wantTrace); i >= 0 {
				t.Fatalf("seed %d mode %d: dispatch %d differs:\n fed   %s\n eager %s",
					seed, mode, i, at(gotTrace, i), at(wantTrace, i))
			}
			if gotStats != wantStats {
				t.Fatalf("seed %d mode %d: fed stats %+v, eager %+v", seed, mode, gotStats, wantStats)
			}
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// TestFeedOrderIsStable holds the radix sort to a stable sort by time
// over spans of every width up to the whole positive range.
func TestFeedOrderIsStable(t *testing.T) {
	r := rng.New(1)
	for _, span := range []uint64{1, 200, 1 << 16, 1 << 40, 1<<63 - 1} {
		times := make([]Time, 500)
		for i := range times {
			times[i] = Time(r.Uint64() % span)
			if i%7 == 0 && i > 0 {
				times[i] = times[i-1]
			}
		}
		want := make([]int, len(times))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int {
			switch {
			case times[a] < times[b]:
				return -1
			case times[a] > times[b]:
				return 1
			}
			return 0
		})
		if got := byTime(times); !slices.Equal(got, want) {
			t.Fatalf("span %d: radix order differs from stable sort", span)
		}
	}
}

// TestFeedOnCluster feeds both engines of a K=2 cluster, with every
// dispatch on domain 0 posting across: the per-domain traces and the
// kernel counters match the eager form.
func TestFeedOnCluster(t *testing.T) {
	const lookahead = 10 * Nanosecond
	run := func(fed bool) ([2][]string, [2]Stats) {
		c := NewCluster(2, lookahead)
		r := rng.New(9)
		var traces [2][]string
		for d := 0; d < 2; d++ {
			e := c.Engine(d)
			times := make([]Time, 300)
			for i := range times {
				times[i] = Time(r.Intn(50)) * Nanosecond
			}
			h := handlerFunc(func(now Time, a0, _ int64) {
				traces[d] = append(traces[d], fmt.Sprintf("%d:%d pending=%d", now, a0, e.Pending()))
				if d == 0 {
					c.Post(0, 1, now+lookahead, func() {
						traces[1] = append(traces[1], fmt.Sprintf("%d:cross %d", c.Engine(1).Now(), a0))
					})
				}
			})
			if fed {
				e.Feed(times, h)
			} else {
				for i, at := range times {
					e.Schedule(at, h, int64(i), 0)
				}
			}
		}
		c.Run()
		return traces, [2]Stats{scheduleStats(c.Engine(0).Stats()), scheduleStats(c.Engine(1).Stats())}
	}
	wantTraces, wantStats := run(false)
	gotTraces, gotStats := run(true)
	for d := range gotTraces {
		if i := firstDiff(gotTraces[d], wantTraces[d]); i >= 0 {
			t.Fatalf("domain %d: dispatch %d differs:\n fed   %s\n eager %s",
				d, i, at(gotTraces[d], i), at(wantTraces[d], i))
		}
	}
	if gotStats != wantStats {
		t.Fatalf("fed stats %+v, eager %+v", gotStats, wantStats)
	}
}

func TestFeedEmpty(t *testing.T) {
	e := New()
	h := handlerFunc(func(Time, int64, int64) { t.Fatal("empty feed fired") })
	e.Feed(nil, h)
	e.Feed([]Time{}, h)
	if st, end := e.Stats(), e.Run(); !reflect.DeepEqual(st, Stats{}) || end != 0 || e.Pending() != 0 {
		t.Fatalf("empty feeds left stats %+v, end %v, pending %d", st, end, e.Pending())
	}
}

func TestFeedBeforeNowPanics(t *testing.T) {
	e := New()
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("feeding a time before now did not panic")
		}
		if st := e.Stats(); st.Scheduled != 0 || e.Pending() != 0 {
			t.Fatalf("refused feed left %d scheduled, %d pending", st.Scheduled, e.Pending())
		}
	}()
	e.Feed([]Time{20, 5, 30}, handlerFunc(func(Time, int64, int64) {}))
}
