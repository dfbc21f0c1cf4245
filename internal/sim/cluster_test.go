package sim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// pingPong wires n logical nodes round-robin across the cluster's
// domains and bounces messages between random pairs: every hop takes
// one full latency (which is also the cluster lookahead, so cross
// posts are legal), and every delivery is recorded as
// (time, node, hop). Sinks are per-domain so parallel windows never
// share a slice.
func pingPong(c *Cluster, n, msgs, hops int, latency Time, seed uint64, sinks []*[]string) {
	src := rng.New(seed)
	domainOf := func(node int) int { return node % c.Domains() }
	var send func(from, to, hop int, at Time)
	send = func(from, to, hop int, at Time) {
		dd := domainOf(to)
		arrive := at + latency
		deliver := func() {
			*sinks[dd] = append(*sinks[dd], fmt.Sprintf("%d:%d:%d", arrive, to, hop))
			if hop > 0 {
				send(to, from, hop-1, arrive)
			}
		}
		if sd := domainOf(from); sd == dd || c.Domains() == 1 {
			c.Engine(dd).At(arrive, deliver)
		} else {
			c.Post(sd, dd, arrive, deliver)
		}
	}
	for m := 0; m < msgs; m++ {
		from := src.Intn(n)
		to := src.Intn(n)
		at := Time(1+src.Intn(50)) * latency
		fromCopy, toCopy := from, to
		c.Engine(domainOf(from)).At(at, func() { send(fromCopy, toCopy, hops, at) })
	}
}

// runPingPong executes the model under k domains and returns the
// delivery log in a canonical sorted order (deliveries are
// independent, so the log is compared as a multiset). maxWindow > 1
// runs the adaptive widening policy.
func runPingPong(k int, seed uint64, maxWindow int) []string {
	const latency = 100 * Nanosecond
	c := NewCluster(k, latency)
	c.SetMaxWindow(maxWindow)
	sinks := make([][]string, k)
	perDomain := make([]*[]string, k)
	for i := range perDomain {
		perDomain[i] = &sinks[i]
	}
	pingPong(c, 16, 40, 4, latency, seed, perDomain)
	c.Run()
	var rec []string
	for _, s := range sinks {
		rec = append(rec, s...)
	}
	sort.Strings(rec)
	return rec
}

func TestClusterMatchesSequential(t *testing.T) {
	want := runPingPong(1, 7, 1)
	if len(want) == 0 {
		t.Fatal("sequential run recorded nothing")
	}
	for _, k := range []int{2, 3, 4, 6, 8} {
		got := runPingPong(k, 7, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d delivery log diverges from sequential: %d vs %d entries\nK:  %v\nseq: %v",
				k, len(got), len(want), got, want)
		}
	}
}

func TestClusterDeterministicPerK(t *testing.T) {
	for _, k := range []int{2, 5} {
		a := runPingPong(k, 99, 1)
		b := runPingPong(k, 99, 1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("K=%d not deterministic across identical runs", k)
		}
	}
}

// TestClusterAdaptiveMatchesSequential: the gated wide-window protocol
// must deliver exactly the sequential multiset even under dense cross
// traffic that repeatedly clamps the widened deadline.
func TestClusterAdaptiveMatchesSequential(t *testing.T) {
	want := runPingPong(1, 7, 1)
	for _, k := range []int{2, 3, 4, 6, 8} {
		for _, mw := range []int{2, 8} {
			got := runPingPong(k, 7, mw)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d maxWindow=%d delivery log diverges from sequential:\nK:  %v\nseq: %v",
					k, mw, got, want)
			}
		}
	}
}

// TestClusterAdaptiveDeterministicPerK: adaptive runs are byte-stable
// per (K, cap) pair — the clamped execution limit is a fixed point of
// the event set, not of goroutine scheduling.
func TestClusterAdaptiveDeterministicPerK(t *testing.T) {
	for _, k := range []int{2, 5} {
		a := runPingPong(k, 99, 8)
		b := runPingPong(k, 99, 8)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("K=%d adaptive run not deterministic across identical runs", k)
		}
	}
}

// TestClusterAdaptiveWidensOnQuietTraffic: a workload with zero cross
// events must see the window count collapse by at least the doubling
// geometry — the whole point of adaptive windows.
func TestClusterAdaptiveWidensOnQuietTraffic(t *testing.T) {
	run := func(maxWindow int) ClusterStats {
		c := NewCluster(2, 10)
		c.SetMaxWindow(maxWindow)
		for d := 0; d < 2; d++ {
			for i := 0; i < 64; i++ {
				c.Engine(d).At(Time(1+10*i), func() {})
			}
		}
		c.Run()
		return c.Stats()
	}
	fixed, adaptive := run(1), run(8)
	if fixed.Agg.Executed != adaptive.Agg.Executed {
		t.Fatalf("executed counts diverge: fixed %d adaptive %d", fixed.Agg.Executed, adaptive.Agg.Executed)
	}
	if adaptive.Windows*2 > fixed.Windows {
		t.Fatalf("adaptive windows %d not at least 2x below fixed %d", adaptive.Windows, fixed.Windows)
	}
	if adaptive.WideWindows == 0 {
		t.Fatal("no widened windows recorded under maxWindow=8")
	}
	if adaptive.MaxWindow != 8 || fixed.MaxWindow != 1 {
		t.Fatalf("MaxWindow stats = %d/%d, want 8/1", adaptive.MaxWindow, fixed.MaxWindow)
	}
}

// TestClusterAdaptiveShrinksOnCross: a cross post inside a widened
// window clamps the limit (the event is delivered at the next barrier,
// never in a domain's past) and resets the width to one lookahead.
func TestClusterAdaptiveShrinksOnCross(t *testing.T) {
	c := NewCluster(2, 10)
	c.SetMaxWindow(8)
	var d0, d1 []Time // each appended only from its own domain's events
	// Quiet prelude on both domains so the window widens.
	for i := 0; i < 8; i++ {
		at := Time(1 + 10*i)
		c.Engine(0).At(at, func() { d0 = append(d0, at) })
		c.Engine(1).At(at, func() {})
	}
	// Then domain 0 posts into domain 1 mid-widened-span: the clamp
	// must stop every domain before 91, or engine 1 would receive the
	// event in its past and panic.
	c.Engine(0).At(81, func() {
		c.Post(0, 1, 91, func() { d1 = append(d1, 91) })
	})
	c.Engine(0).At(95, func() { d0 = append(d0, 95) })
	if end := c.Run(); end != 95 {
		t.Fatalf("run ended at %v, want 95", end)
	}
	want0 := []Time{1, 11, 21, 31, 41, 51, 61, 71, 95}
	if !reflect.DeepEqual(d0, want0) {
		t.Fatalf("domain 0 execution order %v, want %v", d0, want0)
	}
	if !reflect.DeepEqual(d1, []Time{91}) {
		t.Fatalf("domain 1 executed %v, want [91]", d1)
	}
	st := c.Stats()
	if st.CrossEvents != 1 {
		t.Fatalf("cross events %d, want 1", st.CrossEvents)
	}
}

func TestClusterRunToQuiescenceAndResume(t *testing.T) {
	c := NewCluster(2, 10)
	var got []Time
	// The two events land in disjoint windows (50 > 5+10-1), so each
	// window has a single eligible domain and runs inline — the shared
	// slice append is safe and the order deterministic.
	c.Engine(0).At(5, func() { got = append(got, 5) })
	c.Engine(1).At(50, func() { got = append(got, 50) })
	if end := c.Run(); end != 50 {
		t.Fatalf("first run ended at %v, want 50", end)
	}
	// A coordinator may inject more work after quiescence and run again.
	c.Engine(0).At(60, func() { got = append(got, 60) })
	if end := c.Run(); end != 60 {
		t.Fatalf("second run ended at %v, want 60", end)
	}
	if want := []Time{5, 50, 60}; !reflect.DeepEqual(got, want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
}

func TestClusterStatsAggregation(t *testing.T) {
	c := NewCluster(3, 50)
	for i := 0; i < 3; i++ {
		i := i
		for j := 0; j < 5+i; j++ {
			c.Engine(i).At(Time(10*(j+1)), func() {})
		}
	}
	c.Run()
	st := c.Stats()
	if st.Domains != 3 {
		t.Fatalf("Domains = %d", st.Domains)
	}
	if st.Agg.Executed != 5+6+7 {
		t.Fatalf("aggregate executed %d, want 18", st.Agg.Executed)
	}
	var sum uint64
	maxDepth := 0
	for _, d := range st.PerDomain {
		sum += d.Executed
		if d.MaxQueueDepth > maxDepth {
			maxDepth = d.MaxQueueDepth
		}
	}
	if sum != st.Agg.Executed {
		t.Fatalf("per-domain executed sum %d != aggregate %d", sum, st.Agg.Executed)
	}
	if st.Agg.MaxQueueDepth != maxDepth {
		t.Fatalf("aggregate max depth %d, want max of per-domain %d", st.Agg.MaxQueueDepth, maxDepth)
	}
	if st.Windows == 0 {
		t.Fatal("no windows recorded for K=3 run with events")
	}
}

// TestClusterEnginesOnOwnCacheLines holds what domainEngine is for: no
// 64-byte line holds bytes of two domains' engines, whatever size class
// the allocator puts them in.
func TestClusterEnginesOnOwnCacheLines(t *testing.T) {
	c := NewCluster(8, 50)
	owner := map[uintptr]int{}
	for i := 0; i < c.Domains(); i++ {
		lo := uintptr(unsafe.Pointer(c.Engine(i)))
		for line := lo / 64; line <= (lo+unsafe.Sizeof(Engine{})-1)/64; line++ {
			if j, taken := owner[line]; taken {
				t.Fatalf("engines %d and %d share the cache line at %#x", j, i, line*64)
			}
			owner[line] = i
		}
	}
}

func TestClusterPostPastDeadlinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("posting inside the window deadline did not panic")
		}
	}()
	c := NewCluster(2, 1000)
	c.Engine(0).At(10, func() {
		// Lookahead claims cross events land >= now+1000; posting at
		// now+1 violates the conservative bound. Domain 1's only event
		// is far beyond the window, so domain 0 runs inline on the
		// coordinator goroutine and the panic is recoverable here.
		c.Post(0, 1, c.Engine(0).Now()+1, func() {})
	})
	c.Engine(1).At(100000, func() {})
	c.Run()
}

func TestClusterOnWindowHook(t *testing.T) {
	c := NewCluster(2, 100)
	c.Engine(0).At(10, func() {})
	c.Engine(1).At(500, func() {})
	var windows int
	var sawBlocked bool
	c.OnWindow = func(w uint64, start, deadline Time, ran []bool) {
		windows++
		if deadline != start+100-1 {
			t.Errorf("window %d: deadline %v, want start %v + lookahead - 1", w, deadline, start)
		}
		for _, r := range ran {
			if !r {
				sawBlocked = true
			}
		}
	}
	c.Run()
	if windows < 2 {
		t.Fatalf("expected >= 2 windows, got %d", windows)
	}
	if !sawBlocked {
		t.Fatal("expected at least one blocked domain across windows")
	}
}

func TestMergeCrossCanonicalOrder(t *testing.T) {
	evs := []xev{
		{at: 20, src: 1, seq: 1},
		{at: 10, src: 2, seq: 5},
		{at: 10, src: 0, seq: 9},
		{at: 10, src: 0, seq: 2},
		{at: 20, src: 0, seq: 3},
	}
	mergeCross(evs)
	want := []xev{
		{at: 10, src: 0, seq: 2},
		{at: 10, src: 0, seq: 9},
		{at: 10, src: 2, seq: 5},
		{at: 20, src: 0, seq: 3},
		{at: 20, src: 1, seq: 1},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("merge order %v, want %v", evs, want)
	}
}

// FuzzWindowMerge feeds arbitrary byte strings decoded as cross-event
// batches through mergeCross and asserts the result is the canonical
// (time, domain, sequence) sort regardless of input permutation — the
// property the byte-stability contract rests on.
func FuzzWindowMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	seedBuf := make([]byte, 0, 96)
	for i := 0; i < 8; i++ {
		var rec [12]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(100-i))
		binary.LittleEndian.PutUint32(rec[4:], uint32(i%3))
		binary.LittleEndian.PutUint32(rec[8:], uint32(i))
		seedBuf = append(seedBuf, rec[:]...)
	}
	f.Add(seedBuf)
	// Adaptive-deadline seed: cross events whose stamps span several
	// lookahead windows — the shape a widened (SetMaxWindow) deadline
	// merges at one barrier instead of one lookahead at a time.
	wideBuf := make([]byte, 0, 192)
	for w := 0; w < 4; w++ {
		for i := 0; i < 4; i++ {
			var rec [12]byte
			binary.LittleEndian.PutUint32(rec[0:], uint32(1+10*w+3*i))
			binary.LittleEndian.PutUint32(rec[4:], uint32((w+i)%5))
			binary.LittleEndian.PutUint32(rec[8:], uint32(4*w+i))
			wideBuf = append(wideBuf, rec[:]...)
		}
	}
	f.Add(wideBuf)
	f.Fuzz(func(t *testing.T, data []byte) {
		var evs []xev
		for len(data) >= 12 {
			evs = append(evs, xev{
				at:  Time(binary.LittleEndian.Uint32(data[0:4])),
				src: int(binary.LittleEndian.Uint32(data[4:8]) % 16),
				seq: uint64(binary.LittleEndian.Uint32(data[8:12])),
			})
			data = data[12:]
		}
		got := append([]xev(nil), evs...)
		mergeCross(got)
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			after := a.at > b.at ||
				(a.at == b.at && a.src > b.src) ||
				(a.at == b.at && a.src == b.src && a.seq > b.seq)
			if after {
				t.Fatalf("merge not in canonical order at %d: %+v before %+v", i, a, b)
			}
		}
		// The merge must be a permutation: same multiset in and out.
		want := append([]xev(nil), evs...)
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge is not the canonical sort of its input")
		}
	})
}
