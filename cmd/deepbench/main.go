// Command deepbench regenerates every table/figure of the paper
// reproduction through the public deep SDK. With no flags it runs all
// experiments serially and prints aligned tables — byte-identical to
// the historical output; flags select subsets, output formats,
// parallelism and workload overrides.
//
//	deepbench                      # all experiments, aligned tables
//	deepbench -run E01,E08         # two experiments
//	deepbench -csv -run E04        # machine-readable series
//	deepbench -json -parallel 8    # full registry as JSON, 8 workers
//	deepbench -seed 7 -scale 2     # reseeded, double-size workloads
//	deepbench -fidelity flow       # flow-level fabric fast path
//	deepbench -energy -run E15     # joules / GFlop/W columns
//	deepbench -list                # show the registry
//	deepbench -run E13 -trace t.json -metrics m.csv   # observability exports
//	deepbench -store results -resume   # resumable sweep: skip stored points
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"repro/deep"
	"repro/internal/store"
)

// writeOnlyStore records finished points without ever answering a
// lookup: -store without -resume persists a sweep for later resumption
// but still recomputes everything this time.
type writeOnlyStore struct{ inner deep.RunStore }

func (w writeOnlyStore) LookupRun(string) ([]byte, bool) { return nil, false }
func (w writeOnlyStore) StoreRun(key, experiment string, payload, text []byte) error {
	return w.inner.StoreRun(key, experiment, payload, text)
}

// writeFile streams a report export into path.
func writeFile(path string, stderr io.Writer, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

// run is the testable body of main: parses args (without the program
// name), runs the selected experiments and returns the process exit
// code — 2 for a flag-parsing error, 1 for any other failure.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deepbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runFlag       = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		csvFlag       = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonFlag      = fs.Bool("json", false, "emit JSON instead of aligned tables")
		listFlag      = fs.Bool("list", false, "list registered experiments and exit")
		parallelFlag  = fs.Int("parallel", 1, "number of experiments to run concurrently")
		seedFlag      = fs.Uint64("seed", 0, "override the published seed of seeded experiments (0: keep)")
		scaleFlag     = fs.Float64("scale", 1, "scale factor for experiment workload sizes")
		fidelityFlag  = fs.String("fidelity", "default", "fabric transfer model: default | packet | flow")
		energyFlag    = fs.Bool("energy", false, "append joules / GFlop/W columns to every experiment (event-driven energy recorder)")
		traceFlag     = fs.String("trace", "", "write a Chrome trace-event JSON of every run to this file")
		metricsFlag   = fs.String("metrics", "", "write sampled metrics timeseries CSV to this file")
		sampleFlag    = fs.Float64("sample", 0.1, "metrics sampling interval in virtual seconds (with -metrics)")
		storeFlag     = fs.String("store", "", "persist finished points to an append-only store in this directory")
		resumeFlag    = fs.Bool("resume", false, "skip points already in -store (resume a killed sweep)")
		domainsFlag   = fs.Int("domains", 0, "simulation-kernel domains: 0/1 sequential, K>1 partitioned parallel kernel, -1 = GOMAXPROCS")
		maxWindowFlag = fs.Int("maxwindow", 0, "adaptive window cap on the partitioned kernel: quiet windows widen up to N x lookahead (0/1: fixed windows)")
		maxNodesFlag  = fs.Int("maxnodes", 0, "bound sweep machine sizes; >103823 adds E15's million-node point (needs -domains >= 2)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "deepbench: "+format+"\n", a...)
		return 1
	}

	fidelity, err := deep.ParseFidelity(*fidelityFlag)
	if err != nil {
		return fail("%v", err)
	}

	if *listFlag {
		for _, e := range deep.Experiments() {
			fmt.Fprintf(stdout, "%s  %-55s [%s]\n", e.ID, e.Title, e.PaperRef)
		}
		return 0
	}
	if *csvFlag && *jsonFlag {
		return fail("-csv and -json are mutually exclusive")
	}

	var ids []string
	for _, id := range strings.Split(*runFlag, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if *runFlag != "" && len(ids) == 0 {
		return fail("-run %q names no experiments (try -list)", *runFlag)
	}

	runner := &deep.Runner{Parallel: *parallelFlag, Seed: *seedFlag, Scale: *scaleFlag, Fidelity: fidelity, Energy: *energyFlag,
		Domains: *domainsFlag, MaxWindow: *maxWindowFlag, MaxNodes: *maxNodesFlag}
	runner.Tracing = *traceFlag != ""
	if *metricsFlag != "" {
		runner.MetricsEvery = *sampleFlag
	}

	if *resumeFlag && *storeFlag == "" {
		return fail("-resume needs -store (where would the finished points come from?)")
	}
	if *storeFlag != "" {
		if runner.Tracing || runner.MetricsEvery > 0 {
			return fail("-store cannot be combined with -trace/-metrics (observability artifacts are not stored)")
		}
		st, err := store.Open(*storeFlag, store.Options{})
		if err != nil {
			return fail("opening store: %v", err)
		}
		defer st.Close()
		runner.Store = store.RunView{Store: st}
		if !*resumeFlag {
			runner.Store = writeOnlyStore{inner: runner.Store}
		}
	}

	rep, runErr := runner.Run(ctx, ids...)
	if rep == nil {
		return fail("%v (try -list)", runErr)
	}
	if *resumeFlag {
		fmt.Fprintf(stderr, "deepbench: resumed %d of %d points from %s\n",
			rep.StoreHits, len(rep.Results), *storeFlag)
	}
	if rep.StoreErrors > 0 {
		fmt.Fprintf(stderr, "deepbench: %d store writes failed (results above are still fresh)\n", rep.StoreErrors)
	}
	if *traceFlag != "" {
		if err := writeFile(*traceFlag, stderr, rep.WriteChromeTrace); err != nil {
			return fail("%v", err)
		}
	}
	if *metricsFlag != "" {
		if err := writeFile(*metricsFlag, stderr, rep.WriteMetricsCSV); err != nil {
			return fail("%v", err)
		}
	}

	var sink deep.Sink = deep.TableSink{}
	switch {
	case *csvFlag:
		sink = deep.CSVSink{}
	case *jsonFlag:
		sink = deep.JSONSink{Indent: true}
	}
	if err := sink.Write(stdout, rep); err != nil {
		return fail("%v", err)
	}
	// JSON reports carry per-run errors inline too, but the exit
	// status reflects failure in every format.
	if runErr != nil {
		return fail("%v", runErr)
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
