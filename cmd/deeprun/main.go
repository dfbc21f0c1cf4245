// Command deeprun executes one of the real application workloads on
// the functional Global-MPI runtime over the modelled DEEP machine and
// reports both numerical verification and the modelled execution time.
// It is a thin shell over the public deep SDK: one Machine, one
// Workload, one Run.
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
	jobs := make([]deep.Job, n)
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
		workers  = fs.Int("workers", 8, "cholesky OmpSs workers")
		nx       = fs.Int("nx", 32, "grid X dimension")
		ny       = fs.Int("ny", 32, "grid Y dimension")
		iters    = fs.Int("iters", 10, "iterations")
		ranks    = fs.Int("ranks", 4, "MPI ranks")
		seed     = fs.Uint64("seed", 42, "random seed")
		fidStr   = fs.String("fidelity", "default", "fabric transfer model: default | packet | flow | auto")
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

	fid, err := deep.ParseFidelity(*fidStr)
	if err != nil {
		return fail(err)
	}

	if *resume && *storeDir == "" {
		return fail(fmt.Errorf("-resume needs -store"))
	}
	var st *store.Store
	var storeKey string
	if *storeDir != "" {
		if *trace != "" || *metrics != "" {
			return fail(fmt.Errorf("-store cannot be combined with -trace/-metrics (observability artifacts are not stored)"))
		}
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			return fail(err)
		}
		defer st.Close()
		// The content address covers every knob that shapes the output:
		// identical invocations hash identically, anything else is a
		// different point. Knobs that only exist for one app are zeroed
		// for every other app, and new knobs carry omitempty, so hashes
		// of historical invocations are unchanged.
		tMsgs, tBytes, tWindow, tNZ := 0, 0, 0.0, 0
		if *app == "traffic" {
			tMsgs, tBytes, tWindow, tNZ = *msgs, *msgBytes, *windowMS, *nz
		}
		storeKey, err = deep.ContentHash(struct {
			V        int     `json:"v"`
			Kind     string  `json:"kind"`
			App      string  `json:"app"`
			N        int     `json:"n"`
			TS       int     `json:"ts"`
			Workers  int     `json:"workers"`
			NX       int     `json:"nx"`
			NY       int     `json:"ny"`
			Iters    int     `json:"iters"`
			Ranks    int     `json:"ranks"`
			Seed     uint64  `json:"seed"`
			Fidelity string  `json:"fidelity"`
			Energy   bool    `json:"energy"`
			Tol      float64 `json:"tol"`
			Jobs     int     `json:"jobs"`
			Dynamic  bool    `json:"dynamic"`
			MTBF     float64 `json:"mtbf"`
			Boosters int     `json:"boosters"`
			Domains  int     `json:"domains,omitempty"`
			MaxWin   int     `json:"max_window,omitempty"`
			NZ       int     `json:"nz,omitempty"`
			Msgs     int     `json:"msgs,omitempty"`
			MsgBytes int     `json:"msgbytes,omitempty"`
			WindowMS float64 `json:"window_ms,omitempty"`
		}{1, "deeprun", *app, *n, *ts, *workers, *nx, *ny, *iters, *ranks,
			*seed, fid.String(), *energy, *tol, *jobCount, *dynamic, *mtbf, *boosters,
			*domains, *maxWin, tNZ, tMsgs, tBytes, tWindow})
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

	var w deep.Workload
	switch *app {
	case "cholesky":
		w = deep.Cholesky{N: *n, TileSize: *ts, Workers: *workers}
	case "spmv":
		w = deep.SpMV{NX: *nx, NY: *ny, Iters: *iters}
	case "stencil":
		w = deep.Stencil{NX: *nx, NY: *ny, Iters: *iters}
	case "nbody":
		w = deep.NBody{N: *n, Steps: *iters}
	case "jobs":
		w = deep.ScheduledJobs{Jobs: syntheticJobs(*jobCount, *seed), Dynamic: *dynamic}
	case "traffic":
		w = deep.TorusTraffic{Messages: *msgs, Bytes: *msgBytes, WindowMS: *windowMS}
	default:
		return fail(fmt.Errorf("unknown app %q", *app))
	}

	// The machine sizes each fabric to hold one rank per node, like
	// the original hand-wired runs did.
	opts := []deep.Option{
		deep.WithClusterNodes(max(*ranks, 2)),
		deep.WithBoosterNodes(max(*ranks, 2)),
		deep.WithClusterRanks(*ranks),
		deep.WithSeed(*seed),
		deep.WithFidelity(fid),
	}
	if *app == "jobs" {
		opts = append(opts, deep.WithBoosterNodes(*boosters))
		if *mtbf > 0 {
			opts = append(opts, deep.WithFaultInjector(deep.FaultPlan{NodeMTBF: *mtbf, Repair: 5}))
		}
	}
	if *app == "traffic" {
		opts = append(opts, deep.WithBoosterTorus(*nx, *ny, *nz))
	}
	if *domains != 0 {
		opts = append(opts, deep.WithDomains(*domains))
	}
	if *maxWin > 1 {
		opts = append(opts, deep.WithMaxWindow(*maxWin))
	}
	if *energy {
		opts = append(opts, deep.WithEnergyMetering())
	}
	if *trace != "" {
		opts = append(opts, deep.WithTracing())
	}
	if *metrics != "" {
		opts = append(opts, deep.WithMetrics(*sample))
	}
	m, err := deep.NewMachine(opts...)
	if err != nil {
		return fail(err)
	}

	env := m.NewEnv()
	env.Tol = *tol
	res, err := deep.Run(ctx, env, w)
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
