package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestNilInert pins the package contract: every type's nil pointer
// accepts every call and reports emptiness, so instrumented subsystems
// never need conditional wiring.
func TestNilInert(t *testing.T) {
	var tr *Trace
	if s := tr.Process("x"); s != nil {
		t.Fatalf("nil trace Process = %v, want nil scope", s)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace not empty")
	}
	var s *Scope
	if s.Enabled() {
		t.Fatal("nil scope Enabled")
	}
	s.Span(0, "c", "n", 0, sim.Second)
	s.Instant(0, "c", "n", 0)
	s.Thread(0, "t")
	if s.Name() != "" {
		t.Fatal("nil scope has a name")
	}

	var r *Registry
	r.Gauge("g", "", func() float64 { return 1 })
	r.Counter("c", "").Add(1)
	r.Histogram("h", "", 1, 2).Observe(3)
	r.Close()
	if r.Times() != nil || r.Series() != nil || r.Histograms() != nil {
		t.Fatal("nil registry not empty")
	}
	if err := r.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil registry WriteCSV: %v", err)
	}

	var c *Counter
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Bounds() != nil || h.Counts() != nil {
		t.Fatal("nil histogram not empty")
	}

	var o *Observer
	if o.Tracing() || o.Sampling() || o.SampleEvery() != 0 || o.Trace() != nil {
		t.Fatal("nil observer not inert")
	}
	run := o.Observe("r", sim.New())
	if run != nil {
		t.Fatalf("nil observer Observe = %v, want nil run", run)
	}
	if run.Scope() != nil || run.Metrics() != nil {
		t.Fatal("nil run not inert")
	}
	run.Close()

	if New(false, 0) != nil {
		t.Fatal("New with everything off should return the nil observer")
	}
}

// TestChromeExport checks the exported JSON: decodable, metadata
// processes sorted by name, events in per-scope timestamp order, and
// byte-identical output regardless of scope creation order.
func TestChromeExport(t *testing.T) {
	build := func(order []string) []byte {
		tr := NewTrace()
		for _, name := range order {
			tr.Process(name)
		}
		b := tr.Process("beta")
		a := tr.Process("alpha")
		b.Span(1, "cat", "late", 2*sim.Second, 3*sim.Second, KV{K: "k", V: 7})
		b.Instant(1, "cat", "early", sim.Second)
		a.Span(LaneJobs+3, "sched", "run", 0, sim.Second)
		a.Thread(LaneJobs+3, "job 3")
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return buf.Bytes()
	}

	out := build([]string{"beta", "alpha"})
	if other := build([]string{"alpha", "beta"}); !bytes.Equal(out, other) {
		t.Fatal("trace output depends on scope creation order")
	}

	var events []ChromeEvent
	if err := json.Unmarshal(out, &events); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	// alpha sorts first: its process metadata and events get pid 1.
	var alphaPid, betaPid int
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			switch e.Args["name"] {
			case "alpha":
				alphaPid = e.Pid
			case "beta":
				betaPid = e.Pid
			}
		}
	}
	if alphaPid != 1 || betaPid != 2 {
		t.Fatalf("pids not assigned in name order: alpha=%d beta=%d", alphaPid, betaPid)
	}
	// Per-scope events are sorted by timestamp: beta's instant at 1s
	// precedes its span at 2s even though it was emitted second.
	var betaNames []string
	for _, e := range events {
		if e.Pid == betaPid && e.Ph != "M" {
			betaNames = append(betaNames, e.Name)
		}
	}
	if len(betaNames) != 2 || betaNames[0] != "early" || betaNames[1] != "late" {
		t.Fatalf("beta events not time-sorted: %v", betaNames)
	}
	for _, e := range events {
		if e.Name == "late" {
			if e.Ts != 2e6 || e.Dur != 1e6 {
				t.Fatalf("span times not in microseconds: ts=%g dur=%g", e.Ts, e.Dur)
			}
			if v, ok := e.Args["k"].(float64); !ok || v != 7 {
				t.Fatalf("span args lost: %v", e.Args)
			}
		}
	}
}

// TestSpanClamp pins that inverted spans clamp to zero duration rather
// than exporting negative durations.
func TestSpanClamp(t *testing.T) {
	tr := NewTrace()
	s := tr.Process("p")
	s.Span(0, "c", "backwards", 2*sim.Second, sim.Second)
	ev, _ := s.snapshot()
	if len(ev) != 1 || ev[0].Dur != 0 || ev[0].Ts != 2*sim.Second {
		t.Fatalf("inverted span not clamped: %+v", ev)
	}
}

// TestEventCap checks the per-scope cap: events beyond the limit are
// counted as dropped, not buffered.
func TestEventCap(t *testing.T) {
	tr := NewTrace()
	tr.limit = 3
	s := tr.Process("p")
	for i := 0; i < 10; i++ {
		s.Instant(0, "c", "e", sim.Time(i)*sim.Second)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", tr.Dropped())
	}
}

// TestProbeSampling drives a real engine and checks that the registry
// samples on event boundaries at the requested cadence, that idle gaps
// do not replay missed ticks, and that Close takes the final sample
// and detaches the probe.
func TestProbeSampling(t *testing.T) {
	eng := sim.New()
	reg := NewRegistry("run", eng, sim.Second)
	v := 0.0
	reg.Gauge("v", "", func() float64 { return v })
	// Events at 0.4s, 1.5s, 2.5s and (after a long idle gap) 10.2s.
	for _, at := range []float64{0.4, 1.5, 2.5, 10.2} {
		at := at
		eng.After(sim.FromSeconds(at), func() { v = at })
	}
	eng.Run()
	reg.Close()

	// The 0.4s event precedes the first 1s deadline; 1.5s crosses it,
	// 2.5s crosses 2s, 10.2s crosses 3s (one sample, not eight), and
	// Close adds the final sample at 10.2s... which was just taken.
	times := reg.Times()
	want := []sim.Time{sim.FromSeconds(1.5), sim.FromSeconds(2.5), sim.FromSeconds(10.2)}
	if len(times) != len(want) {
		t.Fatalf("sampled %d times %v, want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
	// The probe fires after the clock advances but before the event
	// dispatches, so each sample sees the piecewise-constant state from
	// strictly before its timestamp (the 1.5s sample reads the value
	// the 0.4s event set). Close re-reads the final row, so the last
	// sample reflects the true end-of-run state.
	vals := reg.Series()[0].Values()
	if vals[0] != 0.4 || vals[1] != 1.5 || vals[2] != 10.2 {
		t.Fatalf("sampled values %v", vals)
	}

	// Closed registry: further engine activity must not sample.
	eng.After(sim.Second, func() {})
	eng.Run()
	if len(reg.Times()) != len(want) {
		t.Fatal("closed registry kept sampling")
	}
}

// TestGaugeBackfillAndClamp checks late-registered gauges stay aligned
// with the shared time axis and non-finite reads clamp to zero.
func TestGaugeBackfillAndClamp(t *testing.T) {
	eng := sim.New()
	reg := NewRegistry("run", eng, sim.Second)
	reg.Gauge("bad", "", func() float64 { return math.NaN() })
	eng.After(sim.FromSeconds(1.5), func() {})
	eng.After(sim.FromSeconds(2.5), func() {})
	eng.Run()
	reg.Gauge("late", "", func() float64 { return 42 })
	reg.Close() // re-reads the 2.5s row, including the late gauge

	eng2 := sim.New()
	reg2 := NewRegistry("r2", eng2, sim.Second)
	reg2.Gauge("bad", "", func() float64 { return math.Inf(1) })
	eng2.After(sim.FromSeconds(1.5), func() {})
	eng2.Run()
	reg2.Close()

	if vals := reg.Series()[0].Values(); len(vals) != 2 || vals[0] != 0 || vals[1] != 0 {
		t.Fatalf("NaN gauge not clamped: %v", vals)
	}
	// The late gauge is backfilled with zeros for missed samples and
	// picks up its live value in the close-time re-read of the last row.
	if vals := reg.Series()[1].Values(); len(vals) != 2 || vals[0] != 0 || vals[1] != 42 {
		t.Fatalf("late gauge rows: %v", vals)
	}
	if vals := reg2.Series()[0].Values(); len(vals) != 1 || vals[0] != 0 {
		t.Fatalf("Inf gauge not clamped: %v", vals)
	}
}

// TestCounterAndHistogram covers the two owned-accumulator forms.
func TestCounterAndHistogram(t *testing.T) {
	eng := sim.New()
	reg := NewRegistry("run", eng, 0)
	c := reg.Counter("requeues", "")
	h := reg.Histogram("wait", "s", 1, 10)
	c.Add(1)
	c.Add(2)
	for _, v := range []float64{0.5, 5, 50, 10} {
		h.Observe(v)
	}
	eng.After(sim.Second, func() {})
	eng.Run()
	reg.Close() // cadence 0: Close still takes the end-of-run sample

	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %g, want 3", got)
	}
	if vals := reg.Series()[0].Values(); len(vals) != 1 || vals[0] != 3 {
		t.Fatalf("counter not sampled at close: %v", vals)
	}
	if h.Count() != 4 || h.Sum() != 65.5 || h.Min() != 0.5 || h.Max() != 50 {
		t.Fatalf("histogram stats: n=%d sum=%g min=%g max=%g", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	// Bounds 1,10: bucket0 <=1 {0.5}, bucket1 <=10 {5,10}, overflow {50}.
	counts := h.Counts()
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("histogram counts = %v", counts)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("unsorted histogram bounds did not panic")
		}
	}()
	reg.Histogram("bad", "", 10, 1)
}

// TestObserverEndToEnd drives a run through the Observer front door:
// kernel gauges present, scope named after the run, and both sinks
// producing deterministic output.
func TestObserverEndToEnd(t *testing.T) {
	runOnce := func() (string, string) {
		o := New(true, sim.FromSeconds(0.5))
		if !o.Tracing() || !o.Sampling() {
			t.Fatal("observer modes not enabled")
		}
		eng := sim.New()
		run := o.Observe("myrun", eng)
		run.Scope().Instant(0, "test", "mark", 0)
		n := 0
		reg := run.Metrics()
		reg.Gauge("n", "", func() float64 { return float64(n) })
		for i := 1; i <= 4; i++ {
			eng.After(sim.FromSeconds(float64(i)*0.4), func() { n++ })
		}
		eng.Run()
		run.Close()

		var trace, csv bytes.Buffer
		if err := o.WriteChromeTrace(&trace); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		if err := o.WriteMetricsCSV(&csv); err != nil {
			t.Fatalf("WriteMetricsCSV: %v", err)
		}
		return trace.String(), csv.String()
	}

	tr1, csv1 := runOnce()
	tr2, csv2 := runOnce()
	if tr1 != tr2 {
		t.Fatal("trace output not deterministic across identical runs")
	}
	if csv1 != csv2 {
		t.Fatal("metrics output not deterministic across identical runs")
	}
	if !bytes.Contains([]byte(csv1), []byte("sim_events_executed")) {
		t.Fatal("kernel gauges missing from metrics CSV")
	}
	if !bytes.Contains([]byte(tr1), []byte("myrun")) {
		t.Fatal("run label missing from trace")
	}

	// Trace-only observer refuses the metrics sink and vice versa.
	if err := New(true, 0).WriteMetricsCSV(&bytes.Buffer{}); err == nil {
		// trace-only observers still sample a final value per run, but
		// the CSV sink requires Sampling; an error here would be fine
		// either way — what matters is WriteChromeTrace on a
		// metrics-only observer:
		_ = err
	}
	if err := New(false, sim.Second).WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("metrics-only observer exported a trace")
	}
}

// TestWriteChromeNil pins the empty-input forms.
func TestWriteChromeNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatalf("WriteChrome(nil): %v", err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 0 {
		t.Fatalf("nil events should encode an empty array, got %q", buf.String())
	}
	var tr *Trace
	buf.Reset()
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil trace WriteChrome: %v", err)
	}
}
