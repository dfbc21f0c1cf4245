// Command deeprun executes one of the real application workloads on
// the functional Global-MPI runtime over the modelled DEEP machine and
// reports both numerical verification and the modelled execution time.
// It is a thin shell over the public deep SDK: the flags fill one
// deep.Spec, the same run description deepd accepts, which is
// normalised, built and run.
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
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"

	"repro/deep"
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

// writeFile streams an export into path.
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
// name), runs the workload, and returns the process exit code. A
// failed numerical verification returns 1 even though the run itself
// completed — CI scripts depend on that.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deeprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "cholesky", "workload: cholesky | spmv | stencil | nbody | jobs | traffic")
		n        = fs.Int("n", 64, "cholesky matrix dimension / nbody body count")
		ts       = fs.Int("ts", 16, "cholesky tile size")
		workers  = fs.Int("workers", 8, "cholesky modelled OmpSs workers")
		nx       = fs.Int("nx", 32, "grid X dimension")
		ny       = fs.Int("ny", 32, "grid Y dimension")
		iters    = fs.Int("iters", 10, "iterations")
		ranks    = fs.Int("ranks", 4, "MPI ranks")
		seed     = fs.Uint64("seed", 42, "random seed")
		fidStr   = fs.String("fidelity", "default", "fabric transfer model: default | packet | flow")
		energy   = fs.Bool("energy", false, "report energy to solution (joules, per-group breakdown)")
		tol      = fs.Float64("tol", 0, "override the workload's verification tolerance (0: built-in default)")
		jobCount = fs.Int("jobs", 24, "jobs: number of synthetic jobs to schedule")
		dynamic  = fs.Bool("dynamic", false, "jobs: draw boosters from the shared pool instead of static ownership")
		mtbf     = fs.Float64("mtbf", 0, "jobs: per-node MTBF in seconds (0: no fault injection)")
		boosters = fs.Int("boosters", 16, "jobs: booster pool size")
		trace    = fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		metrics  = fs.String("metrics", "", "write sampled metrics timeseries CSV to this file")
		sample   = fs.Float64("sample", 0.1, "metrics sampling interval in virtual seconds (with -metrics)")
		storeDir = fs.String("store", "", "persist the run to an append-only store in this directory")
		resume   = fs.Bool("resume", false, "replay a stored identical run from -store instead of simulating")
		domains  = fs.Int("domains", 0, "traffic: simulation-kernel domain count (0 or 1: sequential kernel; <0: GOMAXPROCS); other apps ignore it")
		maxWin   = fs.Int("maxwindow", 0, "adaptive window cap on the partitioned kernel: quiet windows widen up to N x lookahead (0 or 1: fixed windows)")
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
	if *ranks < 1 || *seed == 0 || (*app == "jobs" && *boosters < 1) {
		return fail(fmt.Errorf("-ranks, -seed and -boosters must be positive, got %d, %d and %d", *ranks, *seed, *boosters))
	}
	if *resume && *storeDir == "" {
		return fail(fmt.Errorf("-resume needs -store"))
	}
	if *storeDir != "" && (*trace != "" || *metrics != "") {
		return fail(fmt.Errorf("-store cannot be combined with -trace/-metrics (observability artifacts are not stored)"))
	}

	// The machine sizes each fabric to hold one rank per node, like
	// the original hand-wired runs did; jobs schedule on their own
	// booster pool and traffic on its own torus.
	spec := &deep.Spec{
		Workload: &deep.WorkloadSpec{Kind: *app, Tol: *tol},
		Machine: &deep.MachineSpec{ClusterNodes: max(*ranks, 2), BoosterNodes: max(*ranks, 2),
			ClusterRanks: *ranks},
		Seed: *seed, Fidelity: *fidStr, Energy: *energy, Domains: *domains, MaxWindow: *maxWin,
		Trace: *trace != "",
	}
	if *metrics != "" {
		spec.MetricsEveryS = *sample
	}
	w, m := spec.Workload, spec.Machine
	switch *app {
	case "cholesky":
		w.N, w.TileSize, w.Workers = *n, *ts, *workers
	case "spmv", "stencil":
		w.NX, w.NY, w.Iters = *nx, *ny, *iters
	case "nbody":
		w.N, w.Steps = *n, *iters
	case "jobs":
		w.Jobs, w.Dynamic = syntheticJobs(*jobCount, *seed), *dynamic
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

	var st *store.Store
	var storeKey string
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			return fail(err)
		}
		defer st.Close()
		// The content address is the normalised spec's, under deeprun's
		// own envelope so a deeprun record never answers a deepd lookup.
		// Version 1 cholesky records hold wall-clock runtime results,
		// version 1 traffic records the queued-closure pool hit rate.
		v := 1
		if *app == "cholesky" || *app == "traffic" {
			v = 2
		}
		storeKey, err = deep.ContentHash(struct {
			V    int        `json:"v"`
			Kind string     `json:"kind"`
			Spec *deep.Spec `json:"spec"`
		}{v, "deeprun", spec})
		if err != nil {
			return fail(err)
		}
	}
	if *resume {
		if e, ok, gerr := st.Get(storeKey); gerr == nil && ok && len(e.Text) > 0 {
			if _, werr := stdout.Write(e.Text); werr != nil {
				return fail(werr)
			}
			fmt.Fprintf(stderr, "deeprun: replayed stored run (store %s)\n", *storeDir)
			if !e.Verified {
				return 1
			}
			return 0
		}
	}

	env, wl, err := spec.Build()
	if err != nil {
		return fail(err)
	}
	res, err := deep.Run(ctx, env, wl)
	if err != nil {
		return fail(err)
	}
	var text bytes.Buffer
	out := io.Writer(stdout)
	if st != nil {
		// Tee the rendered text so the stored copy replays verbatim.
		out = io.MultiWriter(stdout, &text)
	}
	if err := res.WriteText(out); err != nil {
		return fail(err)
	}
	if st != nil {
		payload, merr := json.Marshal(struct {
			V        int    `json:"v"`
			Kind     string `json:"kind"`
			App      string `json:"app"`
			Verified bool   `json:"verified"`
		}{1, "deeprun", *app, res.Verified})
		if merr != nil {
			return fail(merr)
		}
		if perr := st.Put(&store.Entry{
			Key: storeKey, Meta: "deeprun:" + *app, Verified: res.Verified,
			Result: payload, Text: text.Bytes(),
		}); perr != nil {
			fmt.Fprintf(stderr, "deeprun: store write failed: %v (run output above is unaffected)\n", perr)
		}
	}
	if *trace != "" {
		if res.Trace == nil {
			return fail(fmt.Errorf("%s recorded no trace", *app))
		}
		if err := writeFile(*trace, stderr, res.Trace.WriteChrome); err != nil {
			return fail(err)
		}
	}
	if *metrics != "" {
		if res.Series == nil {
			return fail(fmt.Errorf("%s recorded no metrics (only engine-backed apps like jobs sample)", *app))
		}
		if err := writeFile(*metrics, stderr, res.Series.WriteCSV); err != nil {
			return fail(err)
		}
	}
	if !res.Verified {
		return 1
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
