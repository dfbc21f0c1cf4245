package deep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/store"
)

// Output is everything one run of a Spec produces, encoded: the record
// deepd caches, stores and serves, deeprun prints and stores, and a
// Runner's resumable sweep keeps per point. Encoding once, at the
// source, is what makes a cache hit, a store replay and a fresh run
// byte-identical. It is the store's record type: Key is the spec's
// content address, Meta the experiment id or "workload:<kind>", Result
// the JSON ResultPayload, Text the rendered text, Trace and Metrics the
// Chrome-trace and metrics-CSV attachments (nil unless requested), and
// Verified is false when a checked workload failed verification.
type Output = store.Entry

// ResultPayload is the structured result of one spec run — the body
// of deepd's GET /v1/jobs/{id}/result. Exactly one of Experiment or
// Workload is set, matching the spec kind.
type ResultPayload struct {
	Kind string `json:"kind"` // "experiment" | "workload"
	// Key is the spec's content address.
	Key        string            `json:"key"`
	Experiment *ExperimentResult `json:"experiment,omitempty"`
	Workload   *Result           `json:"workload,omitempty"`
}

// ExperimentResult is one registry run in wire form.
type ExperimentResult struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref"`
	Table    *Table `json:"table"`
}

// Runner returns a Runner set to the spec's run knobs and exports. It
// is the one place a spec's knobs become Runner fields; callers add
// what a spec does not describe (Parallel, Store, Progress).
func (s *Spec) Runner() (*Runner, error) {
	fid, err := ParseFidelity(s.Fidelity)
	if err != nil {
		return nil, fmt.Errorf("deep: spec: %w", err)
	}
	return &Runner{Seed: s.Seed, Scale: s.Scale, Fidelity: fid, Energy: s.Energy,
		Domains: s.Domains, MaxWindow: s.MaxWindow, MaxNodes: s.MaxNodes,
		Tracing: s.Trace, MetricsEvery: s.MetricsEveryS}, nil
}

// Run runs a normalised spec — one registry experiment or one custom
// workload — and encodes its outcome. progress receives one label per
// simulation run an experiment opens (its sweep points); it may be
// nil. A workload that fails its verification is not an error: the
// Output reports it in Verified.
func (s *Spec) Run(ctx context.Context, progress func(string)) (*Output, error) {
	key, err := s.Key()
	if err != nil {
		return nil, err
	}
	var out *Output
	var trace, metrics func(io.Writer) error
	if s.Experiment != "" {
		r, err := s.Runner()
		if err != nil {
			return nil, err
		}
		r.Progress = progress
		rep, err := r.Run(ctx, s.Experiment)
		if err != nil {
			return nil, err
		}
		if out, err = experimentOutput(key, rep.Results[0]); err != nil {
			return nil, err
		}
		trace, metrics = rep.WriteChromeTrace, rep.WriteMetricsCSV
	} else {
		env, wl, err := s.Build()
		if err != nil {
			return nil, err
		}
		res, err := Run(ctx, env, wl)
		if err != nil {
			return nil, err
		}
		switch {
		case s.Trace && res.Trace == nil:
			return nil, fmt.Errorf("workload %q records no trace", wl.Name())
		case s.MetricsEveryS > 0 && res.Series == nil:
			return nil, fmt.Errorf("workload %q samples no metrics (only engine-backed workloads do)", wl.Name())
		}
		out = &Output{Key: key, Meta: "workload:" + s.Workload.Kind, Verified: res.Verified}
		if out.Result, err = json.Marshal(&ResultPayload{Kind: "workload", Key: key, Workload: res}); err != nil {
			return nil, err
		}
		if out.Text, err = encode(res.WriteText); err != nil {
			return nil, err
		}
		trace, metrics = res.Trace.WriteChrome, res.Series.WriteCSV
	}
	if s.Trace {
		if out.Trace, err = encode(trace); err != nil {
			return nil, err
		}
	}
	if s.MetricsEveryS > 0 {
		if out.Metrics, err = encode(metrics); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// experimentOutput encodes one finished registry run as the record
// stored under key: the ResultPayload JSON and the TableSink text. It
// is Spec.Run's output for an experiment spec and what a Runner's
// resumable sweep writes for a point it simulated.
func experimentOutput(key string, res RunResult) (*Output, error) {
	out := &Output{Key: key, Meta: res.ID, Verified: true}
	var err error
	if out.Result, err = json.Marshal(&ResultPayload{Kind: "experiment", Key: key, Experiment: &ExperimentResult{
		ID: res.ID, Title: res.Title, PaperRef: res.PaperRef, Table: res.Table}}); err != nil {
		return nil, err
	}
	out.Text, err = encode(func(w io.Writer) error { return TableSink{}.Write(w, &Report{Results: []RunResult{res}}) })
	return out, err
}

// encode renders one export into a byte slice.
func encode(write func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	err := write(&buf)
	return buf.Bytes(), err
}
