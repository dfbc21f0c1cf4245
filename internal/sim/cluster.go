package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Cluster runs K engines — one spatial domain each, on its own
// goroutine — under conservative synchronous-window synchronization.
// Each round the coordinator computes the global minimum pending event
// time minNext and opens the window [minNext, minNext+lookahead-1]:
// every domain whose next event falls inside executes freely up to the
// deadline, in parallel. Conservativeness: any event a domain posts to
// another during the window carries a timestamp at least lookahead
// after the posting domain's clock, hence strictly beyond the
// deadline, so no domain can receive an event in its own past.
//
// Cross-domain events are exchanged through per-pair outboxes
// (src-private during the window, so posting is lock-free) and merged
// at the window boundary in (time, source domain, source sequence)
// order before injection. The merge order fixes the destination
// engine's tie-breaking sequence numbers, which makes a run byte-stable
// for a fixed K. Different K interleave ties differently, so output is
// NOT stable across domain counts — that is the documented contract.
//
// A Cluster with K=1 never spawns a goroutine and never windows: Run
// delegates to the single engine's Run, preserving the sequential
// kernel's exact behaviour.
type Cluster struct {
	engines   []*Engine
	lookahead Time

	// outbox[src][dst] collects events domain src posts to domain dst
	// during a window. Only goroutine src appends to outbox[src][*],
	// and the coordinator drains between windows — no locks needed.
	outbox [][][]xev
	xseq   []uint64 // per-source post sequence, for deterministic merge
	merged []xev    // coordinator scratch for the boundary merge

	windows uint64
	cross   uint64
	blocked []uint64
	maxNow  Time

	// Adaptive windows (SetMaxWindow). widen is the current width
	// multiplier W: a window spans W*lookahead and W doubles after every
	// window that closes with zero cross-domain posts, up to maxWindow,
	// resetting to 1 the moment cross traffic reappears. Widened windows
	// cannot run the free-for-all RunWindow path — a cross post could
	// land inside the widened span — so they run the gated per-timestamp
	// protocol below, coordinated through the atomics.
	maxWindow   int
	widen       Time
	wideWindows uint64
	gated       bool           // true while a widened window executes; read by Post
	limit       atomic.Int64   // inclusive execution bound of the widened window, clamped by Post
	clocks      []atomic.Int64 // per-domain published intent clocks during a widened window

	// OnWindow, when set, observes each completed window: its ordinal,
	// the [start, deadline] bounds, and which domains executed (ran is
	// reused across windows — copy it to retain). The observability
	// layer uses it to draw per-domain blocked lanes.
	OnWindow func(window uint64, start, deadline Time, ran []bool)
}

// xev is one cross-domain event in flight between two windows.
type xev struct {
	at  Time
	src int
	seq uint64
	dst int
	fn  func()
}

// NewCluster builds a K-domain cluster whose inter-domain lookahead is
// the given minimum cross-domain latency (picoseconds, >= 1).
func NewCluster(k int, lookahead Time) *Cluster {
	if k < 1 {
		panic(fmt.Sprintf("sim: cluster needs at least one domain, got %d", k))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: cluster lookahead must be positive, got %v", lookahead))
	}
	c := &Cluster{
		engines:   make([]*Engine, k),
		lookahead: lookahead,
		outbox:    make([][][]xev, k),
		xseq:      make([]uint64, k),
		blocked:   make([]uint64, k),
		widen:     1,
		clocks:    make([]atomic.Int64, k),
	}
	for i := range c.engines {
		c.engines[i] = &new(domainEngine).Engine
		c.outbox[i] = make([][]xev, k)
	}
	return c
}

// domainEngine pads an Engine by a cache line on either side. Every
// event writes its engine's clock, sequence and counters, K goroutines
// at once; two engines on one line, as consecutive allocations of a size
// that is no multiple of 64 are, made the K=2 E15 sweep burn 40 % more CPU.
type domainEngine struct {
	_ [64]byte
	Engine
	_ [64]byte
}

// Engine returns domain i's engine. Models attached to it must be
// touched only from its own event callbacks once Run starts.
func (c *Cluster) Engine(i int) *Engine { return c.engines[i] }

// Domains returns the domain count K.
func (c *Cluster) Domains() int { return len(c.engines) }

// Lookahead returns the inter-domain lookahead bound.
func (c *Cluster) Lookahead() Time { return c.lookahead }

// SetMaxWindow caps adaptive window widening at mult times the
// lookahead. With mult <= 1 (the default) every window spans exactly
// one lookahead — the fixed policy, byte-identical to earlier
// releases. With mult > 1 the coordinator doubles the next window's
// span after each window that closes with zero cross-domain traffic,
// up to the cap, and shrinks back to one lookahead as soon as cross
// traffic reappears: sparse-communication phases pay geometrically
// fewer barriers. Runs remain byte-stable for a fixed K and a fixed
// cap, but fixed and adaptive policies may order simultaneous cross
// events differently, so outputs are only comparable per policy.
// Call before Run; the widening state persists across Run calls.
func (c *Cluster) SetMaxWindow(mult int) {
	if mult < 1 {
		mult = 1
	}
	c.maxWindow = mult
	c.widen = 1
}

// MaxWindow returns the adaptive widening cap (1 = fixed windows).
func (c *Cluster) MaxWindow() int {
	if c.maxWindow < 1 {
		return 1
	}
	return c.maxWindow
}

// Now returns the maximum virtual time any domain has executed to.
func (c *Cluster) Now() Time { return c.maxNow }

// Post schedules fn at absolute time at on domain dst's engine, called
// from domain src while it executes a window. The timestamp must lie
// at least one lookahead beyond the posting domain's clock — the
// conservativeness invariant; violating it means the caller's
// lookahead bound is wrong, which would silently corrupt causality, so
// it panics. During a widened window the post also clamps the window's
// execution limit to at-1 so no domain runs past the new event before
// the barrier delivers it.
func (c *Cluster) Post(src, dst int, at Time, fn func()) {
	if at < c.engines[src].Now()+c.lookahead {
		panic(fmt.Sprintf("sim: cross-domain event at %v from domain %d (clock %v) violates lookahead %v",
			at, src, c.engines[src].Now(), c.lookahead))
	}
	if c.gated {
		for {
			cur := c.limit.Load()
			if int64(at)-1 >= cur || c.limit.CompareAndSwap(cur, int64(at)-1) {
				break
			}
		}
	}
	c.xseq[src]++
	c.outbox[src][dst] = append(c.outbox[src][dst], xev{at: at, src: src, seq: c.xseq[src], dst: dst, fn: fn})
}

// mergeCross orders cross-domain events deterministically: by
// timestamp, then source domain, then source sequence. The key is
// total (seq is unique per source), so the merged order — and with it
// the destination engines' tie-breaking — is byte-stable for a fixed K
// regardless of goroutine scheduling.
func mergeCross(evs []xev) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
}

// deliver drains every outbox into the destination engines in merged
// deterministic order. Runs on the coordinator between windows.
func (c *Cluster) deliver() {
	c.merged = c.merged[:0]
	for src := range c.outbox {
		for dst := range c.outbox[src] {
			c.merged = append(c.merged, c.outbox[src][dst]...)
			c.outbox[src][dst] = c.outbox[src][dst][:0]
		}
	}
	if len(c.merged) == 0 {
		return
	}
	mergeCross(c.merged)
	c.cross += uint64(len(c.merged))
	for _, x := range c.merged {
		c.engines[x.dst].At(x.at, x.fn)
	}
}

// Run executes all domains to global quiescence and returns the
// maximum executed event time. With K=1 it is exactly the sequential
// engine's Run.
func (c *Cluster) Run() Time {
	if len(c.engines) == 1 {
		c.maxNow = c.engines[0].Run()
		return c.maxNow
	}
	k := len(c.engines)
	nexts := make([]Time, k)
	ran := make([]bool, k)
	var wg sync.WaitGroup
	for {
		c.deliver()
		minNext, any := Time(math.MaxInt64), false
		for i, e := range c.engines {
			t, ok := e.NextEventTime()
			if !ok {
				nexts[i] = -1
				continue
			}
			nexts[i] = t
			if t < minNext {
				minNext = t
			}
			any = true
		}
		if !any {
			break
		}
		w := Time(1)
		if c.maxWindow > 1 {
			w = c.widen
		}
		d := minNext + w*c.lookahead - 1
		c.windows++
		eligible := 0
		for i := range ran {
			ran[i] = nexts[i] >= 0 && nexts[i] <= d
			if ran[i] {
				eligible++
			} else {
				c.blocked[i]++
			}
		}
		crossBefore := c.posted()
		end := d
		if w > 1 {
			end = c.runWide(d, nexts, ran, eligible)
			c.wideWindows++
		} else if eligible == 1 {
			// A lone eligible domain runs inline: no goroutine, no
			// synchronization cost for serial phases of the workload.
			for i := range ran {
				if ran[i] {
					c.engines[i].RunWindow(d)
				}
			}
		} else {
			for i := range ran {
				if !ran[i] {
					continue
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c.engines[i].RunWindow(d)
				}(i)
			}
			wg.Wait()
		}
		for i, e := range c.engines {
			if ran[i] && e.Now() > c.maxNow {
				c.maxNow = e.Now()
			}
		}
		if c.maxWindow > 1 {
			if c.posted() == crossBefore {
				if c.widen *= 2; c.widen > Time(c.maxWindow) {
					c.widen = Time(c.maxWindow)
				}
			} else {
				c.widen = 1
			}
		}
		if c.OnWindow != nil {
			c.OnWindow(c.windows, minNext, end, ran)
		}
	}
	return c.maxNow
}

// posted returns the total number of cross-domain posts ever issued —
// the coordinator compares snapshots around a window to decide whether
// to widen the next one.
func (c *Cluster) posted() uint64 {
	var t uint64
	for _, s := range c.xseq {
		t += s
	}
	return t
}

// runWide executes one widened window with inclusive deadline d under
// the gated protocol and returns the time the window actually closed
// at (d, or earlier if a cross post clamped it). A widened span may
// contain cross stamps, so domains cannot free-run to the deadline the
// way one-lookahead windows do. Instead each eligible domain executes
// one timestamp batch at a time, publishing its next intent in
// clocks[i] and gating on every other domain having advanced to
// within one lookahead below the batch — at that point no peer can
// post an event at or before it. A cross post clamps limit to stamp-1,
// ending the window early so the barrier can deliver the event; the
// executed set is a fixed point of the global (time, domain) order and
// therefore independent of goroutine scheduling.
func (c *Cluster) runWide(d Time, nexts []Time, ran []bool, eligible int) Time {
	c.limit.Store(int64(d))
	for i := range c.clocks {
		if nexts[i] >= 0 {
			c.clocks[i].Store(int64(nexts[i]))
		} else {
			c.clocks[i].Store(math.MaxInt64)
		}
	}
	c.gated = true
	if eligible == 1 {
		for i := range ran {
			if ran[i] {
				c.gatedRun(i)
			}
		}
	} else {
		var wg sync.WaitGroup
		for i := range ran {
			if !ran[i] {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c.gatedRun(i)
			}(i)
		}
		wg.Wait()
	}
	c.gated = false
	return Time(c.limit.Load())
}

// gatedRun is domain i's worker loop inside a widened window: publish
// the next event time, stop if it exceeds the (possibly clamped)
// limit, pass the gate, execute exactly that timestamp, repeat.
func (c *Cluster) gatedRun(i int) {
	e := c.engines[i]
	for {
		t, ok := e.NextEventTime()
		if !ok {
			c.clocks[i].Store(math.MaxInt64)
			return
		}
		c.clocks[i].Store(int64(t))
		if !c.gatePass(i, t) {
			return
		}
		e.RunWindow(t)
	}
}

// gatePass blocks until every other domain's published intent clock
// reaches t-lookahead+1 — from then on no peer can post an event
// stamped at or before t, because stamps exceed the poster's clock by
// at least the lookahead and clocks only advance. It returns false if
// the window limit was clamped below t while waiting (a cross post
// ended the window early); the final limit re-read after the gate
// closes the race with a poster that clamped just before advancing
// its clock.
func (c *Cluster) gatePass(i int, t Time) bool {
	gate := int64(t) - int64(c.lookahead) + 1
	for j := range c.clocks {
		if j == i {
			continue
		}
		for c.clocks[j].Load() < gate {
			if int64(t) > c.limit.Load() {
				return false
			}
			runtime.Gosched()
		}
	}
	return int64(t) <= c.limit.Load()
}

// DomainStats is one domain's scheduler counters plus how often the
// window synchronization held it back.
type DomainStats struct {
	// Domain is the domain index.
	Domain int
	// Stats is the domain engine's scheduler snapshot.
	Stats
	// BlockedWindows counts windows in which this domain executed
	// nothing — its next event lay beyond the conservative deadline.
	BlockedWindows uint64
}

// ClusterStats aggregates scheduler counters coherently across
// domains: additive counters sum, high-water marks take the maximum.
type ClusterStats struct {
	// Domains is K; Windows counts synchronization rounds (0 for K=1);
	// CrossEvents counts events exchanged between domains; Lookahead
	// is the conservative bound the windows used.
	Domains     int
	Windows     uint64
	CrossEvents uint64
	Lookahead   Time
	// MaxWindow is the adaptive widening cap in lookahead multiples
	// (1 = fixed windows); WideWindows counts windows that ran widened.
	MaxWindow   int
	WideWindows uint64
	// Agg sums the additive per-domain counters; MaxQueueDepth is the
	// maximum across domains and BucketWidth is left zero (calendar
	// geometry is per-engine and does not aggregate).
	Agg Stats
	// PerDomain holds each domain's own counters.
	PerDomain []DomainStats
}

// Stats returns the coherent cross-domain counter snapshot.
func (c *Cluster) Stats() ClusterStats {
	cs := ClusterStats{
		Domains:     len(c.engines),
		Windows:     c.windows,
		CrossEvents: c.cross,
		Lookahead:   c.lookahead,
		MaxWindow:   c.MaxWindow(),
		WideWindows: c.wideWindows,
		PerDomain:   make([]DomainStats, len(c.engines)),
	}
	for i, e := range c.engines {
		st := e.Stats()
		cs.PerDomain[i] = DomainStats{Domain: i, Stats: st, BlockedWindows: c.blocked[i]}
		cs.Agg.Executed += st.Executed
		cs.Agg.Scheduled += st.Scheduled
		cs.Agg.Cancelled += st.Cancelled
		cs.Agg.Allocs += st.Allocs
		cs.Agg.Reused += st.Reused
		cs.Agg.Resizes += st.Resizes
		cs.Agg.Buckets += st.Buckets
		cs.Agg.LinkSteps += st.LinkSteps
		cs.Agg.DaySteps += st.DaySteps
		if st.MaxQueueDepth > cs.Agg.MaxQueueDepth {
			cs.Agg.MaxQueueDepth = st.MaxQueueDepth
		}
	}
	return cs
}
