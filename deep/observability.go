package deep

import (
	"encoding/csv"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
)

// KernelStats is the simulation kernel's scheduler counters for
// workloads that own a discrete-event engine (ScheduledJobs and the
// engine-backed experiments): the sim.Engine.Stats() numbers,
// surfaced through the SDK.
type KernelStats struct {
	// ExecutedEvents, ScheduledEvents and CancelledEvents count the
	// calendar queue's dispatches, schedule calls and cancellations.
	ExecutedEvents  uint64 `json:"executed_events"`
	ScheduledEvents uint64 `json:"scheduled_events"`
	CancelledEvents uint64 `json:"cancelled_events"`
	// MaxQueueDepth is the high-water mark of pending events. Under
	// the partitioned kernel it is the maximum over the domain
	// engines (depths are engine-local; summing them would overstate
	// a machine-wide queue that never exists).
	MaxQueueDepth int `json:"max_queue_depth"`
	// PoolHitRate is the event free-list hit rate (reused over
	// total), aggregated over every domain engine's free list under
	// the partitioned kernel. Each engine owns its list and touches it
	// from its own thread only, so the rate is a pure function of that
	// engine's event sequence: byte-stable run to run like every other
	// field here (per fixed domain count under the partitioned kernel).
	PoolHitRate float64 `json:"pool_hit_rate"`
	// Domains, Windows and CrossEvents describe the partitioned
	// kernel's run: the domain count, completed conservative
	// synchronization windows, and events merged across domain
	// boundaries. All zero (and absent from JSON) under the
	// sequential kernel.
	Domains     int    `json:"domains,omitempty"`
	Windows     uint64 `json:"windows,omitempty"`
	CrossEvents uint64 `json:"cross_events,omitempty"`
	// MaxWindow and WideWindows describe adaptive window widening
	// (WithMaxWindow): the configured cap and how many windows actually
	// ran widened. Absent under fixed windows.
	MaxWindow   int    `json:"max_window,omitempty"`
	WideWindows uint64 `json:"wide_windows,omitempty"`
	// PerDomain breaks the counters down by domain engine, present
	// only under the partitioned kernel.
	PerDomain []DomainKernelStats `json:"per_domain,omitempty"`
}

// DomainKernelStats is one domain engine's share of a partitioned
// run.
type DomainKernelStats struct {
	Domain          int    `json:"domain"`
	ExecutedEvents  uint64 `json:"executed_events"`
	ScheduledEvents uint64 `json:"scheduled_events"`
	MaxQueueDepth   int    `json:"max_queue_depth"`
	// BlockedWindows counts the synchronization windows this domain
	// sat out waiting for its neighbours' clocks.
	BlockedWindows uint64 `json:"blocked_windows"`
}

// kernelStats converts an engine snapshot into the public form.
func kernelStats(st sim.Stats) *KernelStats {
	k := &KernelStats{
		ExecutedEvents:  st.Executed,
		ScheduledEvents: st.Scheduled,
		CancelledEvents: st.Cancelled,
		MaxQueueDepth:   st.MaxQueueDepth,
	}
	if total := st.Allocs + st.Reused; total > 0 {
		k.PoolHitRate = float64(st.Reused) / float64(total)
	}
	return k
}

// clusterKernelStats converts a kernel snapshot: the aggregate
// counters are summed coherently across the domain engines (max-depth
// as a maximum, pool hits over the pooled totals), with the per-domain
// breakdown attached when there is more than one domain. A one-domain
// run reports exactly what its single engine counted.
func clusterKernelStats(cs sim.ClusterStats) *KernelStats {
	k := kernelStats(cs.Agg)
	if cs.Domains == 1 {
		return k
	}
	k.Domains = cs.Domains
	k.Windows = cs.Windows
	k.CrossEvents = cs.CrossEvents
	if cs.MaxWindow > 1 {
		k.MaxWindow = cs.MaxWindow
		k.WideWindows = cs.WideWindows
	}
	k.PerDomain = make([]DomainKernelStats, len(cs.PerDomain))
	for i, d := range cs.PerDomain {
		k.PerDomain[i] = DomainKernelStats{
			Domain:          d.Domain,
			ExecutedEvents:  d.Executed,
			ScheduledEvents: d.Scheduled,
			MaxQueueDepth:   d.MaxQueueDepth,
			BlockedWindows:  d.BlockedWindows,
		}
	}
	return k
}

// TraceData is a run's recorded virtual-time trace (WithTracing). It
// is excluded from the Result's JSON form — traces are large; write
// them where they belong with WriteChrome.
type TraceData struct {
	trace *obs.Trace
}

// WriteChrome exports the trace in Chrome trace-event JSON, viewable
// in chrome://tracing or Perfetto.
func (t *TraceData) WriteChrome(w io.Writer) error { return t.trace.WriteChrome(w) }

// Events returns the number of recorded trace events.
func (t *TraceData) Events() int { return t.trace.Len() }

// Dropped returns how many events the per-process cap discarded.
func (t *TraceData) Dropped() uint64 { return t.trace.Dropped() }

// MetricsReport is a run's sampled metrics timeseries (WithMetrics):
// a shared virtual-time axis, one value series per metric, plus any
// histograms observed during the run.
type MetricsReport struct {
	// SampleEveryS is the configured sampling cadence in virtual
	// seconds. Samples land on event times, so spacing is "at least
	// SampleEveryS", not exact.
	SampleEveryS float64 `json:"sample_every_s,omitempty"`
	// TimesS is the shared sample-time axis in virtual seconds.
	TimesS []float64 `json:"t_s"`
	// Series holds one value sequence per metric, aligned with TimesS.
	Series []MetricSeries `json:"series,omitempty"`
	// Histograms holds the run's aggregated distributions.
	Histograms []MetricHistogram `json:"histograms,omitempty"`
}

// MetricSeries is one sampled metric.
type MetricSeries struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit,omitempty"`
	Values []float64 `json:"values"`
}

// MetricHistogram is one aggregated distribution. Counts has one
// entry per bound plus a final overflow bucket (values above the last
// bound); bounds are finite because JSON has no infinities.
type MetricHistogram struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit,omitempty"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// metricsReport converts a run's registry into the public form.
func metricsReport(reg *obs.Registry, every sim.Time) *MetricsReport {
	if reg == nil {
		return nil
	}
	rep := &MetricsReport{SampleEveryS: every.Seconds()}
	for _, t := range reg.Times() {
		rep.TimesS = append(rep.TimesS, t.Seconds())
	}
	for _, s := range reg.Series() {
		rep.Series = append(rep.Series, MetricSeries{
			Name:   s.Name,
			Unit:   s.Unit,
			Values: append([]float64(nil), s.Values()...),
		})
	}
	for _, h := range reg.Histograms() {
		rep.Histograms = append(rep.Histograms, MetricHistogram{
			Name:   h.Name,
			Unit:   h.Unit,
			Count:  h.Count(),
			Sum:    h.Sum(),
			Min:    h.Min(),
			Max:    h.Max(),
			Bounds: append([]float64(nil), h.Bounds()...),
			Counts: append([]uint64(nil), h.Counts()...),
		})
	}
	return rep
}

// WriteCSV writes the timeseries in wide form: a t_s column followed
// by one column per series.
func (m *MetricsReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(m.Series)+1)
	header = append(header, "t_s")
	for _, s := range m.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, t := range m.TimesS {
		cells := make([]string, 0, len(m.Series)+1)
		cells = append(cells, formatMetric(t))
		for _, s := range m.Series {
			cells = append(cells, formatMetric(s.Values[i]))
		}
		if err := cw.Write(cells); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
