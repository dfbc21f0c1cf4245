package deep

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/sim"
)

// ModelTime is a modelled virtual-clock duration in seconds. It
// renders with the same adaptive unit the simulation kernel uses
// (e.g. "1.234ms").
type ModelTime float64

// Seconds returns the duration in seconds.
func (t ModelTime) Seconds() float64 { return float64(t) }

// String implements fmt.Stringer.
func (t ModelTime) String() string { return sim.FromSeconds(float64(t)).String() }

// Metric is one named observation of a workload run.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Unit is an optional display suffix ("B", "s", ...).
	Unit string `json:"unit,omitempty"`
}

// Result is the structured outcome of one Workload run.
type Result struct {
	// Workload is the workload name, Summary its one-line parameter
	// echo (reflecting any adjusted values, e.g. a rounded-up NBody
	// body count).
	Workload string `json:"workload"`
	Summary  string `json:"summary"`
	// ModelTime is the modelled execution time on the machine's
	// virtual clock (zero: the workload modelled no time; text output
	// then omits it).
	ModelTime ModelTime `json:"model_time_s"`
	// Metrics are the ordered observations of the run.
	Metrics []Metric `json:"metrics,omitempty"`
	// Notes carry free-text commentary, including any parameter
	// adjustments the workload had to make.
	Notes []string `json:"notes,omitempty"`
	// Checked is true when the run performed numerical verification;
	// MaxError and Tol then hold the achieved and admissible error.
	Checked  bool    `json:"checked"`
	MaxError float64 `json:"max_error,omitempty"`
	Tol      float64 `json:"tol,omitempty"`
	// Verified is the run's verdict: true when unchecked runs
	// completed or checked runs met their tolerance.
	Verified bool `json:"verified"`
	// Energy is the run's power/energy telemetry, present only on
	// machines built with WithEnergyMetering (unmetered output is
	// byte-identical to previous releases).
	Energy *EnergyReport `json:"energy,omitempty"`
	// Kernel is the simulation kernel's scheduler counters, present
	// for workloads that own a discrete-event engine (ScheduledJobs);
	// nil for analytic cost-model workloads.
	Kernel *KernelStats `json:"kernel,omitempty"`
	// Trace is the run's virtual-time trace, present only on machines
	// built with WithTracing. It is deliberately outside the JSON
	// form; export it with Trace.WriteChrome.
	Trace *TraceData `json:"-"`
	// Series is the run's sampled metrics timeseries, present only on
	// machines built with WithMetrics.
	Series *MetricsReport `json:"timeseries,omitempty"`
}

// EnergyReport is the structured energy block of a metered run.
type EnergyReport struct {
	// Joules is the total energy to solution.
	Joules float64 `json:"joules"`
	// GFlopsPerWatt is the achieved efficiency; zero when the
	// workload has no useful-flop accounting.
	GFlopsPerWatt float64 `json:"gflops_per_watt,omitempty"`
	// Groups breaks the total down by node group.
	Groups []GroupEnergy `json:"groups,omitempty"`
	// Charges lists the non-node energy categories (fabric transfer
	// energy, checkpoint I/O, ...) in joules.
	Charges []Metric `json:"charges,omitempty"`
}

// GroupEnergy is one node group's share of a run's energy.
type GroupEnergy struct {
	Name   string  `json:"name"`
	Joules float64 `json:"joules"`
	// BusyFraction is busy node-seconds over total node-seconds.
	BusyFraction float64 `json:"busy_fraction"`
	// SleepSeconds is the node-seconds spent power-gated.
	SleepSeconds float64 `json:"sleep_node_seconds,omitempty"`
}

// energyReport converts a recorder's accumulated state into the
// public report form. Nil recorders yield nil.
func energyReport(rec *energy.Recorder) *EnergyReport {
	if rec == nil {
		return nil
	}
	rep := &EnergyReport{
		Joules:        rec.Joules(),
		GFlopsPerWatt: rec.GFlopsPerWatt(),
	}
	for _, name := range rec.GroupNames() {
		g := rec.Group(name)
		rep.Groups = append(rep.Groups, GroupEnergy{
			Name:         name,
			Joules:       g.Joules(),
			BusyFraction: g.BusyFraction(),
			SleepSeconds: g.StateNodeSeconds(machine.PowerSleep),
		})
	}
	for _, name := range rec.ChargeNames() {
		rep.Charges = append(rep.Charges, Metric{Name: name, Value: rec.ChargeJoules(name), Unit: "J"})
	}
	return rep
}

// Metric returns the named metric value.
func (r *Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// addMetric appends an observation.
func (r *Result) addMetric(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit})
}

// verify records a verification outcome against a tolerance.
func (r *Result) verify(maxErr, tol float64) {
	r.Checked = true
	r.MaxError = maxErr
	r.Tol = tol
	r.Verified = maxErr <= tol
}

// formatMetric renders a metric value compactly (integers without a
// decimal point or exponent, however large).
func formatMetric(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the result as the human-readable block the
// deeprun CLI prints.
func (r *Result) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", r.Workload, r.Summary)
	if r.ModelTime > 0 {
		fmt.Fprintf(&b, "  modelled time = %v\n", r.ModelTime)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "  %s = %s", m.Name, formatMetric(m.Value))
		if m.Unit != "" {
			fmt.Fprintf(&b, " %s", m.Unit)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	if e := r.Energy; e != nil {
		fmt.Fprintf(&b, "  energy = %.4g J", e.Joules)
		if e.GFlopsPerWatt > 0 {
			fmt.Fprintf(&b, " (%.3g GFlop/W)", e.GFlopsPerWatt)
		}
		b.WriteByte('\n')
		for _, g := range e.Groups {
			fmt.Fprintf(&b, "    %s = %.4g J (busy %.2f)\n", g.Name, g.Joules, g.BusyFraction)
		}
		for _, c := range e.Charges {
			fmt.Fprintf(&b, "    %s = %.4g J\n", c.Name, c.Value)
		}
	}
	if k := r.Kernel; k != nil {
		fmt.Fprintf(&b, "  kernel: %d events, max queue %d, pool hit %.2f\n",
			k.ExecutedEvents, k.MaxQueueDepth, k.PoolHitRate)
	}
	if t := r.Trace; t != nil {
		fmt.Fprintf(&b, "  trace: %d events\n", t.Events())
	}
	if s := r.Series; s != nil {
		fmt.Fprintf(&b, "  metrics: %d series x %d samples\n", len(s.Series), len(s.TimesS))
	}
	if r.Checked {
		fmt.Fprintf(&b, "  max error = %.3e (tol %.1e)\n", r.MaxError, r.Tol)
	}
	switch {
	case r.Checked && r.Verified:
		b.WriteString("  VERIFIED\n")
	case r.Verified:
		b.WriteString("  COMPLETED (unchecked)\n")
	default:
		b.WriteString("  FAILED\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
