package deep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/expt"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Table is the public form of one rendered figure: title, column
// headers, string cells, and paper-vs-measured commentary. Summary
// carries machine-readable run totals (e.g. "joules" for energy
// experiments) that are not rendered in text or CSV output.
type Table struct {
	Title   string             `json:"title"`
	Headers []string           `json:"headers"`
	Rows    [][]string         `json:"rows"`
	Notes   []string           `json:"notes,omitempty"`
	Summary map[string]float64 `json:"summary,omitempty"`
}

// fromStats converts the internal table representation.
func fromStats(t *stats.Table) *Table {
	return &Table{Title: t.Title, Headers: t.Headers, Rows: t.Rows, Notes: t.Notes, Summary: t.Summary}
}

// toStats converts back for rendering, so the aligned-text and CSV
// formats have exactly one implementation.
func (t *Table) toStats() *stats.Table {
	return &stats.Table{Title: t.Title, Headers: t.Headers, Rows: t.Rows, Notes: t.Notes, Summary: t.Summary}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error { return t.toStats().Render(w) }

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error { return t.toStats().CSV(w) }

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref"`
}

// Experiments lists the registered experiments sorted by ID.
func Experiments() []ExperimentInfo {
	all := expt.All()
	out := make([]ExperimentInfo, len(all))
	for i, e := range all {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}
	}
	return out
}

// ExperimentIDs returns the sorted experiment identifiers.
func ExperimentIDs() []string { return expt.IDs() }

// RunResult is the outcome of one experiment run: either a table or
// an error. JSONSink defines the wire form.
type RunResult struct {
	ID       string
	Title    string
	PaperRef string
	Table    *Table
	Err      error
	// FromStore marks a result loaded from Runner.Store instead of
	// simulated — a skipped point of a resumed sweep.
	FromStore bool
}

// Report is an ordered collection of experiment results, in the order
// they were requested (registry order for a full run), independent of
// execution interleaving.
type Report struct {
	Results []RunResult

	// StoreHits counts experiments answered from Runner.Store without
	// simulating — the skip count of a resumed sweep. StoreErrors
	// counts failed store writes (the runs themselves still succeed).
	StoreHits   int
	StoreErrors int

	// obs is the observability hub the runs recorded into; nil unless
	// the Runner enabled tracing or metrics.
	obs *obs.Observer
}

// WriteChromeTrace exports the merged trace of every observed run in
// Chrome trace-event JSON (one trace process per run, named after the
// run). It errors unless the Runner had Tracing set.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	if r.obs == nil || !r.obs.Tracing() {
		return fmt.Errorf("deep: report has no trace (run with Tracing enabled)")
	}
	return r.obs.WriteChromeTrace(w)
}

// WriteMetricsCSV exports every observed run's sampled timeseries in
// long CSV form (run,metric,unit,t_s,value). It errors unless the
// Runner had MetricsEvery set.
func (r *Report) WriteMetricsCSV(w io.Writer) error {
	if r.obs == nil || !r.obs.Sampling() {
		return fmt.Errorf("deep: report has no metrics (run with MetricsEvery set)")
	}
	return r.obs.WriteMetricsCSV(w)
}

// Err joins the per-run errors, nil when every run succeeded.
func (r *Report) Err() error {
	var errs []error
	for _, res := range r.Results {
		if res.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", res.ID, res.Err))
		}
	}
	return errors.Join(errs...)
}

// Runner executes experiments from the registry: serially by default,
// or over a bounded worker pool, with per-run seed and scale
// overrides and context cancellation. The zero value runs everything
// serially at paper scale.
type Runner struct {
	// Parallel bounds the number of concurrently running experiments;
	// values below 2 run serially.
	Parallel int
	// Seed, when non-zero, overrides the published seed of every
	// seeded experiment.
	Seed uint64
	// Scale multiplies the workload size of experiments with a size
	// axis; 0 or 1 keeps paper scale.
	Scale float64
	// Fidelity overrides the fabric transfer model of event-driven
	// experiments; DefaultFidelity keeps each experiment's own choice.
	Fidelity Fidelity
	// Energy appends joules / GFlop/W columns to every experiment,
	// fed by the event-driven energy recorder. Off keeps the
	// published tables byte-identical.
	Energy bool
	// Domains selects the simulation kernel for experiments with a
	// spatial partition (E15): 0 or 1 keeps the sequential kernel
	// (byte-identical to the published tables), K > 1 runs K domain
	// engines under conservative window synchronization (output is
	// byte-stable per fixed K, not across K), negative resolves to
	// GOMAXPROCS. Every other experiment ignores it: the Global-MPI ones
	// (E05, E07) run their ranks on mpi.World at any K.
	Domains int
	// MaxWindow, when above 1, lets the partitioned kernel widen
	// quiet windows geometrically up to MaxWindow times the fabric
	// lookahead; 0 or 1 keeps fixed windows. Output stays byte-stable
	// per fixed (Domains, MaxWindow) pair. Ignored when Domains <= 1.
	MaxWindow int
	// MaxNodes, when positive, bounds the machine sizes sweep
	// experiments visit; raising it past the sequential ceiling
	// (~100k nodes) adds E15's million-node point, which requires
	// Domains > 1.
	MaxNodes int
	// Tracing records a virtual-time trace of every event-driven
	// experiment run; export the merged trace with
	// Report.WriteChromeTrace. Off keeps runs trace-free.
	Tracing bool
	// MetricsEvery, when positive, samples per-run metrics timeseries
	// every that many virtual seconds; export them with
	// Report.WriteMetricsCSV.
	MetricsEvery float64
	// OnResult, when non-nil, is called once per experiment as it
	// finishes (table or error filled in), before Run returns. Calls
	// may come from concurrent worker goroutines.
	OnResult func(RunResult)
	// Progress, when non-nil, receives the label of every simulation
	// run an experiment opens (one label per sweep point), as it
	// starts — live progress for long sweeps. Calls may come from
	// concurrent worker goroutines.
	Progress func(label string)
	// Store, when non-nil, makes sweeps resumable: each experiment is
	// looked up before simulating under the content key deepd and
	// deeprun store the same run under (Spec.Key of the untraced
	// experiment spec), hits are returned from the store (byte-identical
	// to a fresh run), and fresh results are written through as
	// Spec.Run's Output. Traced or metrics-sampled runs bypass the
	// store — their artifacts live on the observer, not in the record.
	Store RunStore
}

// storeKey returns the content key of experiment id run with the
// runner's knobs: Spec.Key of the normalised, untraced spec of the
// same run, so a sweep point and a deepd or deeprun run share a record.
func (r *Runner) storeKey(id string) (string, error) {
	s := &Spec{Experiment: id}
	s.setRun(runSettings{Seed: r.Seed, Scale: r.Scale, Fidelity: r.Fidelity.String(), Energy: r.Energy,
		Domains: r.Domains, MaxWindow: r.MaxWindow, MaxNodes: r.MaxNodes}.canonical())
	return s.Key()
}

// Run executes the named experiments (all of them, in registry order,
// when ids is empty) and returns their results in the requested
// order. Execution stops early when ctx is cancelled; individual
// experiment failures are recorded per result and joined into the
// returned error.
func (r *Runner) Run(ctx context.Context, ids ...string) (*Report, error) {
	if len(ids) == 0 {
		ids = expt.IDs()
	}
	exps := make([]expt.Experiment, len(ids))
	for i, id := range ids {
		e, ok := expt.Get(id)
		if !ok {
			return nil, fmt.Errorf("deep: unknown experiment %q", id)
		}
		exps[i] = e
	}
	if r.MetricsEvery < 0 {
		return nil, fmt.Errorf("deep: negative metrics sampling interval %v s", r.MetricsEvery)
	}
	o := obs.New(r.Tracing, sim.FromSeconds(r.MetricsEvery))
	if r.Progress != nil {
		if o == nil {
			// A progress-only observer: no trace, no sampling, just
			// lane-open notifications. Inert for experiment output.
			o = &obs.Observer{}
		}
		o.OnObserve = r.Progress
	}
	cfg := &expt.Config{Seed: r.Seed, Scale: r.Scale, Fidelity: fabric.Fidelity(r.Fidelity),
		Energy: r.Energy, Domains: r.Domains, MaxWindow: r.MaxWindow, MaxNodes: r.MaxNodes, Obs: o}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	workers := max(r.Parallel, 1)

	// Resumable sweeps: consult the store per experiment under its
	// content key. Traced/sampled runs bypass it (their artifacts are
	// not in the stored record).
	useStore := r.Store != nil && !r.Tracing && r.MetricsEvery <= 0
	var storeHits, storeErrors atomic.Int64

	rep := &Report{Results: make([]RunResult, len(exps)), obs: o}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, e := range exps {
		rep.Results[i] = RunResult{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}
		wg.Add(1)
		go func(i int, e expt.Experiment) {
			defer wg.Done()
			// finish publishes the result to OnResult before the worker
			// slot frees, so a single-worker runner delivers completions
			// in execution order and a callback that cancels the context
			// stops the queue before the next experiment can start.
			finish := func() {
				if r.OnResult != nil {
					r.OnResult(rep.Results[i])
				}
			}
			if err := ctx.Err(); err != nil {
				rep.Results[i].Err = err
				finish()
				return
			}
			var key string
			if useStore {
				if k, kerr := r.storeKey(e.ID); kerr == nil {
					key = k
					if tab := storedTable(r.Store, key, e.ID); tab != nil {
						rep.Results[i].Table = tab
						rep.Results[i].FromStore = true
						storeHits.Add(1)
						finish()
						return
					}
				}
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				rep.Results[i].Err = ctx.Err()
				finish()
				return
			}
			tab, err := e.Run(ctx, cfg)
			if err != nil {
				rep.Results[i].Err = err
			} else {
				rep.Results[i].Table = fromStats(tab)
				if key != "" {
					if out, oerr := experimentOutput(key, rep.Results[i]); oerr != nil || r.Store.Put(out) != nil {
						storeErrors.Add(1)
					}
				}
			}
			finish()
			<-sem
		}(i, e)
	}
	wg.Wait()
	rep.StoreHits = int(storeHits.Load())
	rep.StoreErrors = int(storeErrors.Load())
	return rep, rep.Err()
}
