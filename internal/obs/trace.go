// Package obs is the virtual-time observability layer of the
// simulated machine: trace spans stamped with sim.Time, metrics
// timeseries sampled on the simulation clock, and the plumbing that
// surfaces both through the deep SDK and the command-line tools.
//
// Everything in the package follows the nil-inert convention the
// energy layer established: a nil *Trace, *Scope, *Registry or
// *Observer accepts every call and does nothing, so instrumented
// subsystems carry one pointer field and zero conditional wiring.
// With observability off the instrumentation reduces to a nil check
// per emission site, keeping default runs byte-identical and inside
// the benchmark band.
package obs

import (
	"sort"
	"sync"

	"repro/internal/sim"
)

// Thread-id lanes: instrumented subsystems offset their component ids
// into disjoint tid ranges so a single trace process keeps jobs,
// faults, nodes, links and power transitions on separate rows.
const (
	LaneJobs   = 0
	LaneFaults = 1 << 20
	LaneNodes  = 2 << 20
	LaneLinks  = 3 << 20
	LanePower  = 4 << 20
	// LaneDomains holds one row per parallel-kernel domain: spans named
	// "blocked" cover the synchronization windows a domain sat out.
	LaneDomains = 5 << 20
)

// KV is one key/value argument attached to a trace event.
type KV struct {
	K string
	V any
}

// Event is one recorded trace record in virtual time. Ph follows the
// Chrome trace-event phases: 'X' complete span, 'i' instant.
type Event struct {
	Name string
	Cat  string
	Ph   byte
	Ts   sim.Time
	Dur  sim.Time
	Tid  int
	Args []KV
}

// DefaultEventLimit caps the events one Scope buffers. A traced E15
// run dispatches hundreds of millions of events; the cap turns an
// accidental full-fidelity trace into a truncated timeline plus a
// Dropped count instead of an OOM kill.
const DefaultEventLimit = 4 << 20

// Trace collects events from any number of named processes (scopes).
// Each scope buffers its own events, so parallel runs never interleave
// and the exported trace is a deterministic function of the per-run
// event streams regardless of goroutine scheduling.
type Trace struct {
	mu     sync.Mutex
	limit  int
	scopes []*Scope
}

// NewTrace returns an empty trace with the default per-scope cap.
func NewTrace() *Trace { return &Trace{limit: DefaultEventLimit} }

// Process returns the scope named name, creating it on first use.
// Scope names become Chrome process names; reusing a name returns the
// same scope. Nil-safe: a nil trace returns a nil (inert) scope.
func (t *Trace) Process(name string) *Scope {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.scopes {
		if s.name == name {
			return s
		}
	}
	s := &Scope{name: name, limit: t.limit}
	t.scopes = append(t.scopes, s)
	return s
}

// Len returns the total number of buffered events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	scopes := append([]*Scope(nil), t.scopes...)
	t.mu.Unlock()
	n := 0
	for _, s := range scopes {
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// Dropped returns how many events were discarded across all scopes
// because a scope hit its event cap.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	scopes := append([]*Scope(nil), t.scopes...)
	t.mu.Unlock()
	var n uint64
	for _, s := range scopes {
		s.mu.Lock()
		n += s.dropped
		s.mu.Unlock()
	}
	return n
}

// sorted returns the scopes ordered by name. Process ids are assigned
// from this order at export time, so the trace layout depends only on
// the set of scope names, not on the creation interleaving of a
// parallel runner.
func (t *Trace) sorted() []*Scope {
	t.mu.Lock()
	scopes := append([]*Scope(nil), t.scopes...)
	t.mu.Unlock()
	sort.Slice(scopes, func(i, j int) bool { return scopes[i].name < scopes[j].name })
	return scopes
}

// Scope is one traced process: a named stream of events sharing a pid
// in the exported trace. The zero of *Scope (nil) is inert, so
// instrumented subsystems emit unconditionally through it.
type Scope struct {
	name    string
	limit   int
	mu      sync.Mutex
	events  []Event
	threads map[int]string
	dropped uint64
}

// Enabled reports whether the scope records anything. Emission sites
// with non-trivial argument construction gate on it; a bare Span or
// Instant call on a nil scope is also safe.
func (s *Scope) Enabled() bool { return s != nil }

// Name returns the scope's process name.
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

func (s *Scope) add(ev Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.limit > 0 && len(s.events) >= s.limit {
		s.dropped++
	} else {
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// Span records a complete event covering [start, end] on thread tid.
func (s *Scope) Span(tid int, cat, name string, start, end sim.Time, args ...KV) {
	if s == nil {
		return
	}
	if end < start {
		end = start
	}
	s.add(Event{Name: name, Cat: cat, Ph: 'X', Ts: start, Dur: end - start, Tid: tid, Args: args})
}

// Instant records a zero-duration event at time at on thread tid.
func (s *Scope) Instant(tid int, cat, name string, at sim.Time, args ...KV) {
	if s == nil {
		return
	}
	s.add(Event{Name: name, Cat: cat, Ph: 'i', Ts: at, Tid: tid, Args: args})
}

// Thread names a tid row (Chrome thread_name metadata).
func (s *Scope) Thread(tid int, name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.threads == nil {
		s.threads = make(map[int]string)
	}
	s.threads[tid] = name
	s.mu.Unlock()
}

// snapshot returns the scope's events stably sorted by timestamp and
// its thread names. Stable sort keeps same-timestamp events in
// emission order, which is deterministic per run.
func (s *Scope) snapshot() ([]Event, map[int]string) {
	s.mu.Lock()
	events := append([]Event(nil), s.events...)
	threads := make(map[int]string, len(s.threads))
	for k, v := range s.threads {
		threads[k] = v
	}
	s.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return events, threads
}
