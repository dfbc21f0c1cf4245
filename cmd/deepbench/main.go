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
//
// -store keeps each point as deepd's record of the same experiment spec
// (deep.Spec.Run's Output under deep.Spec.Key), so a deepbench point, a
// deeprun run and a deepd job are one record and answer each other.
// Points stored by an older deepbench, under its own key scheme, miss
// once and are simulated again.
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
	"repro/internal/cli"
	"repro/internal/store"
)

// writeOnlyStore records finished points without ever answering a
// lookup: -store without -resume persists a sweep for later resumption
// but still recomputes everything this time.
type writeOnlyStore struct{ *store.Store }

func (writeOnlyStore) Get(string) (*store.Entry, bool, error) { return nil, false, nil }

// run is the testable body of main: parses args (without the program
// name), runs the selected experiments and returns the process exit
// code — 2 for a flag-parsing error, 1 for any other failure.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deepbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := &deep.Spec{}
	var (
		runFlag      = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		csvFlag      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonFlag     = fs.Bool("json", false, "emit JSON instead of aligned tables")
		listFlag     = fs.Bool("list", false, "list registered experiments and exit")
		parallelFlag = fs.Int("parallel", 1, "number of experiments to run concurrently")
	)
	fs.Uint64Var(&spec.Seed, "seed", 0, "override the published seed of seeded experiments (0: keep)")
	fs.Float64Var(&spec.Scale, "scale", 1, "scale factor for experiment workload sizes")
	fs.IntVar(&spec.MaxNodes, "maxnodes", 0, "bound sweep machine sizes; >103823 adds E15's million-node point (needs -domains >= 2)")
	fl := cli.Register(fs, spec)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "deepbench: "+format+"\n", a...)
		return 1
	}
	if err := fl.Check(); err != nil {
		return fail("%v", err)
	}
	runner, err := spec.Runner()
	if err != nil {
		return fail("%v", err)
	}
	runner.Parallel = *parallelFlag

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

	if fl.Store != "" {
		st, err := store.Open(fl.Store, store.Options{})
		if err != nil {
			return fail("opening store: %v", err)
		}
		defer st.Close()
		runner.Store = st
		if !fl.Resume {
			runner.Store = writeOnlyStore{st}
		}
	}

	rep, runErr := runner.Run(ctx, ids...)
	if rep == nil {
		return fail("%v (try -list)", runErr)
	}
	if fl.Resume {
		fmt.Fprintf(stderr, "deepbench: resumed %d of %d points from %s\n",
			rep.StoreHits, len(rep.Results), fl.Store)
	}
	if rep.StoreErrors > 0 {
		fmt.Fprintf(stderr, "deepbench: %d store writes failed (results above are still fresh)\n", rep.StoreErrors)
	}
	if fl.Trace != "" {
		if err := cli.WriteFile(fl.Trace, stderr, rep.WriteChromeTrace); err != nil {
			return fail("%v", err)
		}
	}
	if fl.Metrics != "" {
		if err := cli.WriteFile(fl.Metrics, stderr, rep.WriteMetricsCSV); err != nil {
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
