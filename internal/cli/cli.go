// Package cli declares the run flags deepbench and deeprun share, once:
// the run knobs fill a deep.Spec directly, and the export and store
// flags are checked together before anything runs.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/deep"
)

// Flags holds the shared flags that are not spec fields: the export
// paths, the metrics sampling interval and the store options.
type Flags struct {
	Trace, Metrics string
	Sample         float64
	Store          string
	Resume         bool

	spec *deep.Spec
}

// Register declares the shared flags on fs: -fidelity, -energy,
// -domains and -maxwindow fill spec, the rest the returned Flags. Call
// Check after parsing.
func Register(fs *flag.FlagSet, spec *deep.Spec) *Flags {
	f := &Flags{spec: spec}
	fs.StringVar(&spec.Fidelity, "fidelity", "default", "fabric transfer model: default | packet | flow")
	fs.BoolVar(&spec.Energy, "energy", false, "report energy to solution: joules / GFlop/W columns on experiments, a per-group breakdown on workloads")
	fs.IntVar(&spec.Domains, "domains", 0, "simulation-kernel domains: 0/1 sequential, K>1 partitioned parallel kernel, <0 GOMAXPROCS; only E15 and traffic read it")
	fs.IntVar(&spec.MaxWindow, "maxwindow", 0, "adaptive window cap on the partitioned kernel: quiet windows widen up to N x lookahead (0/1: fixed windows)")
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON of every run to this file")
	fs.StringVar(&f.Metrics, "metrics", "", "write sampled metrics timeseries CSV to this file")
	fs.Float64Var(&f.Sample, "sample", 0.1, "metrics sampling interval in virtual seconds (with -metrics)")
	fs.StringVar(&f.Store, "store", "", "persist finished runs to an append-only store in this directory")
	fs.BoolVar(&f.Resume, "resume", false, "answer runs already in -store from it instead of simulating")
	return f
}

// Check rejects flag combinations that cannot run, then sets the
// spec's Trace and MetricsEveryS from the export flags.
func (f *Flags) Check() error {
	switch {
	case f.Resume && f.Store == "":
		return errors.New("-resume needs -store (where would the stored runs come from?)")
	case f.Store != "" && (f.Trace != "" || f.Metrics != ""):
		return errors.New("-store cannot be combined with -trace/-metrics (observability artifacts are not stored)")
	case f.Metrics != "" && f.Sample <= 0:
		return fmt.Errorf("-metrics needs a positive -sample interval, got %v", f.Sample)
	}
	f.spec.Trace = f.Trace != ""
	if f.Metrics != "" {
		f.spec.MetricsEveryS = f.Sample
	}
	return nil
}

// WriteFile streams an export into path and reports it on stderr. A
// failed export leaves no file behind.
func WriteFile(path string, stderr io.Writer, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}
