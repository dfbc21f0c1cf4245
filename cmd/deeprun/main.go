// Command deeprun executes one of the real application workloads on
// the functional Global-MPI runtime over the modelled DEEP machine and
// reports both numerical verification and the modelled execution time.
// It is a thin shell over the public deep SDK: the flags fill one
// deep.Spec, the same run description deepd accepts, which is
// normalised and run by deep.Spec.Run. -store persists deepd's own
// record of that spec, so deeprun and deepd answer each other.
//
//	deeprun -app cholesky -n 64 -ts 16 -workers 8
//	deeprun -app spmv -nx 32 -ny 32 -iters 10 -ranks 4
//	deeprun -app stencil -nx 64 -ny 64 -iters 20 -ranks 8
//	deeprun -app nbody -n 64 -iters 10 -ranks 4
//	deeprun -app traffic -nx 8 -ny 8 -nz 8 -domains 4 -msgs 8192
//	deeprun -app spmv -ranks 4 -energy
//	deeprun -app jobs -jobs 24 -dynamic -mtbf 120 -trace t.json -metrics m.csv
//	deeprun -app spmv -store results          # persist the run
//	deeprun -app spmv -store results -resume  # replay it without simulating
//
// The exit status is part of the contract: 0 only when the run
// completed AND its numerical verification (if any) passed; 1 on
// verification failure or any error. A -resume replay keeps the
// contract: the stored verified flag decides the exit status.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"

	"repro/deep"
	"repro/internal/cli"
	"repro/internal/store"
)

// syntheticJobs builds a seeded synthetic booster job mix for the
// "jobs" app: staggered arrivals, 2-8 s durations, power-of-two
// booster demands across four owners.
func syntheticJobs(n int, seed uint64) []deep.Job {
	r := rand.New(rand.NewSource(int64(seed)))
	jobs := make([]deep.Job, max(n, 0))
	for i := range jobs {
		jobs[i] = deep.Job{
			ID:       i,
			Arrival:  float64(i) * 0.25,
			Duration: 2 + r.Float64()*6,
			Boosters: 1 << r.Intn(4),
			Owner:    i % 4,
		}
	}
	return jobs
}

// run is the testable body of main: parses args (without the program
// name), runs the workload, and returns the process exit code. A
// failed numerical verification returns 1 even though the run itself
// completed — CI scripts depend on that.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deeprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := &deep.Spec{Workload: &deep.WorkloadSpec{}, Machine: &deep.MachineSpec{}}
	w, m := spec.Workload, spec.Machine
	fs.StringVar(&w.Kind, "app", "cholesky", "workload: cholesky | spmv | stencil | nbody | jobs | traffic")
	fs.Float64Var(&w.Tol, "tol", 0, "override the workload's verification tolerance (0: built-in default)")
	fs.Uint64Var(&spec.Seed, "seed", 42, "random seed")
	fl := cli.Register(fs, spec)
	var (
		n        = fs.Int("n", 64, "cholesky matrix dimension / nbody body count")
		ts       = fs.Int("ts", 16, "cholesky tile size")
		workers  = fs.Int("workers", 8, "cholesky modelled OmpSs workers")
		nx       = fs.Int("nx", 32, "grid X dimension")
		ny       = fs.Int("ny", 32, "grid Y dimension")
		iters    = fs.Int("iters", 10, "iterations")
		ranks    = fs.Int("ranks", 4, "MPI ranks")
		jobCount = fs.Int("jobs", 24, "jobs: number of synthetic jobs to schedule")
		dynamic  = fs.Bool("dynamic", false, "jobs: draw boosters from the shared pool instead of static ownership")
		mtbf     = fs.Float64("mtbf", 0, "jobs: per-node MTBF in seconds (0: no fault injection)")
		boosters = fs.Int("boosters", 16, "jobs: booster pool size")
		nz       = fs.Int("nz", 8, "traffic: booster torus Z dimension (with -nx/-ny)")
		msgs     = fs.Int("msgs", 4096, "traffic: number of point-to-point messages")
		msgBytes = fs.Int("msgbytes", 2048, "traffic: payload bytes per message")
		windowMS = fs.Float64("window", 1, "traffic: injection window in virtual milliseconds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "deeprun: %v\n", err)
		return 1
	}
	// In a spec, zero means "the default"; these flags have no default
	// to fall back on, so zero is an error here, not a silent 42 or 32.
	if *ranks < 1 || spec.Seed == 0 || (w.Kind == "jobs" && *boosters < 1) {
		return fail(fmt.Errorf("-ranks, -seed and -boosters must be positive, got %d, %d and %d", *ranks, spec.Seed, *boosters))
	}
	if err := fl.Check(); err != nil {
		return fail(err)
	}

	// The machine sizes each fabric to hold one rank per node, like
	// the original hand-wired runs did; jobs schedule on their own
	// booster pool and traffic on its own torus.
	m.ClusterNodes, m.BoosterNodes, m.ClusterRanks = max(*ranks, 2), max(*ranks, 2), *ranks
	switch w.Kind {
	case "cholesky":
		w.N, w.TileSize, w.Workers = *n, *ts, *workers
	case "spmv", "stencil":
		w.NX, w.NY, w.Iters = *nx, *ny, *iters
	case "nbody":
		w.N, w.Steps = *n, *iters
	case "jobs":
		w.Jobs, w.Dynamic = syntheticJobs(*jobCount, spec.Seed), *dynamic
		m.BoosterNodes = *boosters
		if *mtbf > 0 {
			m.Faults = &deep.FaultPlan{NodeMTBF: *mtbf, Repair: 5}
		}
	case "traffic":
		w.Messages, w.MsgBytes, w.WindowMS = *msgs, *msgBytes, *windowMS
		m.BoosterNodes, m.BoosterTorus = 0, []int{*nx, *ny, *nz}
	}
	if err := spec.Normalize(); err != nil {
		return fail(err)
	}

	// A stored run is deepd's record of the same spec: its key, its
	// meta, its result and text.
	var st *store.Store
	if fl.Store != "" {
		var err error
		if st, err = store.Open(fl.Store, store.Options{}); err != nil {
			return fail(err)
		}
		defer st.Close()
	}
	if fl.Resume {
		key, err := spec.Key()
		if err != nil {
			return fail(err)
		}
		if e, ok, gerr := st.Get(key); gerr == nil && ok && len(e.Text) > 0 {
			if _, werr := stdout.Write(e.Text); werr != nil {
				return fail(werr)
			}
			fmt.Fprintf(stderr, "deeprun: replayed stored run (store %s)\n", fl.Store)
			if !e.Verified {
				return 1
			}
			return 0
		}
	}

	out, err := spec.Run(ctx, nil)
	if err != nil {
		return fail(err)
	}
	if _, err := stdout.Write(out.Text); err != nil {
		return fail(err)
	}
	if st != nil {
		if perr := st.Put(&store.Entry{Key: out.Key, Meta: spec.Meta(), Verified: out.Verified,
			Result: out.Result, Text: out.Text}); perr != nil {
			fmt.Fprintf(stderr, "deeprun: store write failed: %v (run output above is unaffected)\n", perr)
		}
	}
	for _, export := range []struct {
		path string
		data []byte
	}{{fl.Trace, out.Trace}, {fl.Metrics, out.Metrics}} {
		if export.path == "" {
			continue
		}
		if err := cli.WriteFile(export.path, stderr, func(w io.Writer) error {
			_, err := w.Write(export.data)
			return err
		}); err != nil {
			return fail(err)
		}
	}
	if !out.Verified {
		return 1
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
