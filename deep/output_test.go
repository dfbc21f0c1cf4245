package deep

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSpecRun: one call runs an experiment spec and a workload spec
// alike, and encodes what the spec asked for — the golden text, a
// result payload under the spec's own key, and attachments only when
// requested. A workload that cannot produce a requested attachment is
// an error, not an empty file.
func TestSpecRun(t *testing.T) {
	golden, err := os.ReadFile("testdata/E01.golden")
	if err != nil {
		t.Fatal(err)
	}
	exp := &Spec{Experiment: "E01"}
	key := normKey(t, exp)
	out, err := exp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var payload ResultPayload
	if err := json.Unmarshal(out.Result, &payload); err != nil {
		t.Fatal(err)
	}
	switch {
	case string(out.Text) != string(golden):
		t.Errorf("E01 text differs from its golden file:\n%s", out.Text)
	case out.Key != key || payload.Key != key || payload.Kind != "experiment" || payload.Experiment == nil:
		t.Errorf("E01 output key %s, payload %+v; want key %s", out.Key, payload, key)
	case !out.Verified || out.Trace != nil || out.Metrics != nil:
		t.Errorf("E01 output verified=%v with unrequested attachments", out.Verified)
	}

	jobs := &Spec{Workload: &WorkloadSpec{Kind: "jobs", Jobs: []Job{{Arrival: 0, Duration: 2, Boosters: 2}}},
		Trace: true, MetricsEveryS: 0.5}
	normKey(t, jobs)
	out, err = jobs.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload = ResultPayload{}
	if err := json.Unmarshal(out.Result, &payload); err != nil || payload.Kind != "workload" || payload.Workload == nil {
		t.Errorf("jobs payload %s (%v)", out.Result, err)
	}
	if len(out.Trace) == 0 || len(out.Metrics) == 0 || !strings.Contains(string(out.Text), "jobs") {
		t.Errorf("jobs output lacks its text or attachments: %d trace, %d metrics bytes", len(out.Trace), len(out.Metrics))
	}

	spmv := &Spec{Workload: &WorkloadSpec{Kind: "spmv"}, Trace: true}
	normKey(t, spmv)
	if _, err := spmv.Run(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "records no trace") {
		t.Errorf("traced spmv: err %v, want a no-trace error", err)
	}
}
