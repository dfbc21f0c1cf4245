package obs

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// Registry collects metrics for one simulation run. Gauges are read
// functions sampled into timeseries on a virtual-time cadence;
// counters are gauges over an owned accumulator; histograms aggregate
// observations without a time axis.
//
// Sampling rides the engine's probe hook rather than self-scheduled
// tick events: a tick event would enter the calendar queue, perturb
// the kernel's event counts and the cluster's window boundaries,
// stretch the apparent makespan past the last model event, and need
// its own termination logic. The probe fires as the clock advances
// through events that exist anyway, so sampling can never change what
// the simulation computes — and since discrete-event state is
// piecewise constant between events, sampling at event times loses
// nothing. Samples are stamped with the actual event time, so the
// series cadence is "at least Every apart", not exactly periodic.
type Registry struct {
	name   string
	eng    *sim.Engine
	every  sim.Time
	next   sim.Time
	times  []sim.Time
	series []*Series
	hists  []*Histogram
	closed bool
}

// Series is one sampled timeseries. All series of a registry share
// the registry's sample times.
type Series struct {
	Name string
	Unit string
	read func() float64
	vals []float64
}

// Values returns the sampled values (aligned with Registry.Times).
func (s *Series) Values() []float64 { return s.vals }

// Counter is a monotonically accumulating metric registered as a
// gauge over its own value. Nil-inert like everything else here.
type Counter struct{ v float64 }

// Add increments the counter.
func (c *Counter) Add(d float64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the accumulated total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram aggregates observations into buckets with finite upper
// bounds plus one overflow bucket. The overflow bucket is stored
// separately rather than as a +Inf bound because the JSON sinks
// cannot represent infinities.
type Histogram struct {
	Name   string
	Unit   string
	bounds []float64
	counts []uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Bounds returns the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts returns the bucket counts; the final entry is the overflow
// bucket (observations above the last bound).
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// NewRegistry returns a registry sampling the engine every `every` of
// virtual time; every <= 0 disables periodic sampling (Close still
// takes one final sample, so gauges always yield at least their
// end-of-run value). Call Close after the run; the registry installs
// itself as the engine's probe and Close removes it.
func NewRegistry(name string, eng *sim.Engine, every sim.Time) *Registry {
	r := &Registry{name: name, eng: eng, every: every}
	if every > 0 {
		r.next = every
		eng.SetProbe(r.onAdvance)
	}
	return r
}

// Name returns the registry's run label.
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Gauge registers a sampled read function. Series registered after
// sampling started are backfilled with zeros so every series stays
// aligned with the shared time axis (zeros, not NaN: the JSON sinks
// reject NaN).
func (r *Registry) Gauge(name, unit string, read func() float64) {
	if r == nil {
		return
	}
	s := &Series{Name: name, Unit: unit, read: read}
	if n := len(r.times); n > 0 {
		s.vals = make([]float64, n)
	}
	r.series = append(r.series, s)
}

// Counter registers an accumulator sampled like a gauge and returns
// it. A nil registry returns a nil (inert) counter.
func (r *Registry) Counter(name, unit string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.Gauge(name, unit, c.Value)
	return c
}

// Histogram registers a histogram with the given ascending finite
// bucket bounds and returns it. A nil registry returns nil.
func (r *Registry) Histogram(name, unit string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	h := &Histogram{Name: name, Unit: unit,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1)}
	r.hists = append(r.hists, h)
	return h
}

// onAdvance is the engine probe: take a sample whenever the clock has
// crossed the next sampling deadline.
func (r *Registry) onAdvance(now sim.Time) {
	if r.closed || now < r.next {
		return
	}
	r.sample(now)
	// Advance past now without looping sample-by-sample through idle
	// gaps (a job arrival after 1000s of quiet would otherwise replay
	// every missed tick).
	steps := (now-r.next)/r.every + 1
	r.next += steps * r.every
}

func (r *Registry) sample(now sim.Time) {
	r.times = append(r.times, now)
	for _, s := range r.series {
		s.vals = append(s.vals, finite(s.read()))
	}
}

// finite clamps NaN/Inf reads to zero; the JSON sinks reject both.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Close takes a final sample at the engine's current time and detaches
// the probe. The probe samples before each event dispatches, so when
// the run's last event crossed a sampling deadline the buffered tail
// sample predates its effects; Close re-reads every series at that
// timestamp so the final row always reflects the end-of-run state.
// Safe to call more than once; nil-safe.
func (r *Registry) Close() {
	if r == nil || r.closed {
		return
	}
	now := r.eng.Now()
	if n := len(r.times); n > 0 && r.times[n-1] == now {
		for _, s := range r.series {
			s.vals[n-1] = finite(s.read())
		}
	} else {
		r.sample(now)
	}
	r.closed = true
	if r.every > 0 {
		r.eng.SetProbe(nil)
	}
}

// Times returns the shared sample times.
func (r *Registry) Times() []sim.Time {
	if r == nil {
		return nil
	}
	return r.times
}

// Series returns the registered timeseries in registration order.
func (r *Registry) Series() []*Series {
	if r == nil {
		return nil
	}
	return r.series
}

// Histograms returns the registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return r.hists
}

// formatFloat renders a metric value compactly and deterministically.
func formatFloat(v float64) string { return fmt.Sprintf("%g", v) }
