package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/deep"
)

// ResultPayload is the structured result of a finished job — the body
// of GET /v1/jobs/{id}/result. Exactly one of Experiment or Workload
// is set, matching the spec kind. The bytes a client receives are the
// bytes of the first computation: cache hits serve the stored
// marshalling verbatim, so cached and fresh results are
// byte-identical.
type ResultPayload struct {
	Kind string `json:"kind"` // "experiment" | "workload"
	// Key is the spec's content address.
	Key        string            `json:"key"`
	Experiment *ExperimentResult `json:"experiment,omitempty"`
	Workload   *deep.Result      `json:"workload,omitempty"`
}

// ExperimentResult is one registry run in wire form.
type ExperimentResult struct {
	ID       string      `json:"id"`
	Title    string      `json:"title"`
	PaperRef string      `json:"paper_ref"`
	Table    *deep.Table `json:"table"`
}

// execute runs a normalized spec to completion and packages the
// outcome as a cache entry. progress receives one label per
// simulation run the job opens (experiment sweep points).
func execute(ctx context.Context, key string, spec *JobSpec, progress func(string)) (*Entry, error) {
	if spec.Experiment != "" {
		return executeExperiment(ctx, key, spec, progress)
	}
	return executeWorkload(ctx, key, spec)
}

// executeExperiment drives one registry experiment through the
// context-aware Runner.
func executeExperiment(ctx context.Context, key string, spec *JobSpec, progress func(string)) (*Entry, error) {
	r := &deep.Runner{
		Seed:         spec.Seed,
		Scale:        spec.Scale,
		Energy:       spec.Energy,
		Domains:      spec.Domains,
		MaxWindow:    spec.MaxWindow,
		MaxNodes:     spec.MaxNodes,
		Tracing:      spec.Trace,
		MetricsEvery: spec.MetricsEveryS,
		Progress:     progress,
	}
	if spec.Fidelity != "" {
		fid, err := deep.ParseFidelity(spec.Fidelity)
		if err != nil {
			return nil, err // unreachable after normalize
		}
		r.Fidelity = fid
	}
	rep, err := r.Run(ctx, spec.Experiment)
	if err != nil {
		return nil, err
	}
	res := rep.Results[0]
	entry := &Entry{Key: key, Verified: true}
	payload := &ResultPayload{
		Kind: "experiment",
		Key:  key,
		Experiment: &ExperimentResult{
			ID: res.ID, Title: res.Title, PaperRef: res.PaperRef, Table: res.Table,
		},
	}
	if entry.Result, err = json.Marshal(payload); err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := (deep.TableSink{}).Write(&text, rep); err != nil {
		return nil, err
	}
	entry.Text = text.Bytes()
	if spec.Trace {
		var buf bytes.Buffer
		if err := rep.WriteChromeTrace(&buf); err != nil {
			return nil, err
		}
		entry.Trace = buf.Bytes()
	}
	if spec.MetricsEveryS > 0 {
		var buf bytes.Buffer
		if err := rep.WriteMetricsCSV(&buf); err != nil {
			return nil, err
		}
		entry.Metrics = buf.Bytes()
	}
	return entry, nil
}

// executeWorkload builds the machine and runs the custom workload.
func executeWorkload(ctx context.Context, key string, spec *JobSpec) (*Entry, error) {
	env, wl, err := spec.Build()
	if err != nil {
		return nil, err
	}
	res, err := deep.Run(ctx, env, wl)
	if err != nil {
		return nil, err
	}
	entry := &Entry{Key: key, Verified: res.Verified}
	payload := &ResultPayload{Kind: "workload", Key: key, Workload: res}
	if entry.Result, err = json.Marshal(payload); err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		return nil, err
	}
	entry.Text = text.Bytes()
	if spec.Trace {
		if res.Trace == nil {
			return nil, fmt.Errorf("workload %q records no trace", wl.Name())
		}
		var buf bytes.Buffer
		if err := res.Trace.WriteChrome(&buf); err != nil {
			return nil, err
		}
		entry.Trace = buf.Bytes()
	}
	if spec.MetricsEveryS > 0 {
		if res.Series == nil {
			return nil, fmt.Errorf("workload %q samples no metrics (only engine-backed workloads do)", wl.Name())
		}
		var buf bytes.Buffer
		if err := res.Series.WriteCSV(&buf); err != nil {
			return nil, err
		}
		entry.Metrics = buf.Bytes()
	}
	return entry, nil
}
