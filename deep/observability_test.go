package deep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/deep"
)

// obsJobs is a small mixed job set with enough contention to exercise
// waits and, under faults, requeues.
func obsJobs() deep.ScheduledJobs {
	return deep.ScheduledJobs{
		Jobs: []deep.Job{
			{ID: 0, Arrival: 0, Duration: 2, Boosters: 4, Owner: 0},
			{ID: 1, Arrival: 0.5, Duration: 3, Boosters: 4, Owner: 1},
			{ID: 2, Arrival: 1, Duration: 1, Boosters: 8, Owner: 0},
			{ID: 3, Arrival: 1.5, Duration: 2, Boosters: 2, Owner: 1},
		},
		Dynamic: true,
	}
}

func runJobs(t *testing.T, opts ...deep.Option) *deep.Result {
	t.Helper()
	opts = append([]deep.Option{deep.WithBoosterNodes(8), deep.WithSeed(7)}, opts...)
	m, err := deep.NewMachine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := deep.Run(context.Background(), m.NewEnv(), obsJobs())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultObservability checks the SDK surface: kernel stats always
// present for engine-backed workloads, trace and timeseries only with
// the matching options, and the core metrics untouched by observation.
func TestResultObservability(t *testing.T) {
	plain := runJobs(t)
	if plain.Trace != nil || plain.Series != nil {
		t.Fatal("unobserved run carries trace/metrics")
	}
	if plain.Kernel == nil || plain.Kernel.ExecutedEvents == 0 {
		t.Fatalf("kernel stats missing on engine-backed workload: %+v", plain.Kernel)
	}

	observed := runJobs(t, deep.WithTracing(), deep.WithMetrics(0.25))
	if observed.Trace == nil || observed.Trace.Events() == 0 {
		t.Fatal("traced run has no trace events")
	}
	if observed.Series == nil || len(observed.Series.TimesS) == 0 {
		t.Fatal("metered run has no samples")
	}
	if len(observed.Series.Histograms) == 0 || observed.Series.Histograms[0].Name != "job_wait_s" {
		t.Fatalf("job wait histogram missing: %+v", observed.Series.Histograms)
	}
	if got := observed.Series.Histograms[0].Count; got != 4 {
		t.Fatalf("wait histogram saw %d jobs, want 4", got)
	}

	// Observation must not perturb the schedule.
	pm, _ := plain.Metric("makespan_s")
	om, _ := observed.Metric("makespan_s")
	if pm != om {
		t.Fatalf("makespan changed under observation: %v vs %v", pm, om)
	}

	var trace bytes.Buffer
	if err := observed.Trace.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(trace.Bytes()) {
		t.Fatal("trace export is not valid JSON")
	}
	var csv bytes.Buffer
	if err := observed.Series.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, col := range []string{"t_s", "queue_depth", "free_boosters", "sim_events_executed"} {
		if !strings.Contains(head, col) {
			t.Fatalf("metrics CSV header %q missing column %s", head, col)
		}
	}

	// The text rendering gains the introspection lines only when the
	// data is present.
	var txt bytes.Buffer
	if err := observed.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kernel:", "trace:", "metrics:"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("WriteText missing %q:\n%s", want, txt.String())
		}
	}

	// JSON form: kernel and timeseries in, raw trace out.
	buf, err := json.Marshal(observed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte(`"kernel"`)) || !bytes.Contains(buf, []byte(`"timeseries"`)) {
		t.Fatal("kernel/timeseries missing from JSON result")
	}
	if bytes.Contains(buf, []byte(`"trace"`)) {
		t.Fatal("raw trace leaked into JSON result")
	}
}

// TestCholeskyTrace checks the modelled OmpSs schedule joins the same
// trace pipeline through the shared encoder, one span per task.
func TestCholeskyTrace(t *testing.T) {
	m, err := deep.NewMachine(deep.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	res, err := deep.Run(context.Background(), m.NewEnv(), deep.Cholesky{N: 32, TileSize: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Events() == 0 {
		t.Fatal("traced cholesky recorded no task spans")
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "potrf") {
		t.Fatal("cholesky trace missing potrf tasks")
	}
	if tasks, _ := res.Metric("tasks"); res.Trace.Events() != int(tasks) {
		t.Fatalf("trace has %d spans for %v tasks", res.Trace.Events(), tasks)
	}
}

// TestRunnerObservability checks report-level aggregation: per-run
// processes in one merged trace, and the export guards.
func TestRunnerObservability(t *testing.T) {
	r := &deep.Runner{Parallel: 2, Tracing: true, MetricsEvery: 0.5}
	rep, err := r.Run(context.Background(), "E13", "E16")
	if err != nil {
		t.Fatal(err)
	}
	var trace, csv bytes.Buffer
	if err := rep.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, proc := range []string{"E13/", "E16/"} {
		if !strings.Contains(trace.String(), proc) {
			t.Fatalf("merged trace missing %s processes", proc)
		}
		if !strings.Contains(csv.String(), proc) {
			t.Fatalf("metrics CSV missing %s runs", proc)
		}
	}

	bare, err := (&deep.Runner{}).Run(context.Background(), "E12")
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.WriteChromeTrace(&trace); err == nil {
		t.Fatal("unobserved report exported a trace")
	}
	if err := bare.WriteMetricsCSV(&csv); err == nil {
		t.Fatal("unobserved report exported metrics")
	}
}

// TestNegativeMetricsInterval pins the validation errors.
func TestNegativeMetricsInterval(t *testing.T) {
	if _, err := deep.NewMachine(deep.WithMetrics(-1)); err == nil {
		t.Fatal("negative machine sampling interval accepted")
	}
	if _, err := (&deep.Runner{MetricsEvery: -1}).Run(context.Background(), "E12"); err == nil {
		t.Fatal("negative runner sampling interval accepted")
	}
}
