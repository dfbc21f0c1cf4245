package deep

import (
	"context"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/cbp"
	"repro/internal/fabric"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Workload is anything that can execute on a DEEP machine and verify
// its own result: the four applications, kernel offloading, and
// booster job scheduling all implement it.
type Workload interface {
	// Name identifies the workload ("cholesky", "spmv", ...).
	Name() string
	// Run executes the workload in the environment and returns its
	// structured, self-verified result. Implementations honour ctx
	// cancellation between phases.
	Run(ctx context.Context, env *Env) (*Result, error)
}

// Run validates the environment and executes the workload — the
// single entry point the CLIs and examples use.
func Run(ctx context.Context, env *Env, w Workload) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("deep: nil workload")
	}
	if err := env.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w.Run(ctx, env)
}

// positive returns v, or def when v is unset.
func positive(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// runVerified executes fn on env.Ranks Global-MPI ranks over the
// machine's transport, concatenates the per-rank outputs in rank
// order, verifies them against the sequential reference, and records
// model time plus traffic metrics on res. The reference runs on its
// own goroutine beside the ranks and is joined before any return that
// follows its start; a panic there comes back as the error, as a rank's
// does. The ranks run on mpi.World whatever the machine's
// domain count: their clocks, not an event kernel, carry the model.
// This one helper replaces the four copy-pasted transport/verify loops
// the pre-SDK cmd/deeprun carried.
func runVerified(ctx context.Context, env *Env, res *Result, reference func() []float64, tol float64,
	fn func(c *mpi.Comm) ([]float64, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := env.Machine.transport()
	var opts []mpi.Option
	if env.PlaceOnBooster {
		opts = append(opts, mpi.WithPlacement(func(ep int) int {
			return tr.BoosterNode(ep % env.Machine.boosterNodes)
		}))
	} else if env.Ranks > env.Machine.clusterNodes {
		// Identity placement would spill ranks past the cluster fabric
		// and silently charge them booster/gateway costs.
		return fmt.Errorf("deep: %d ranks exceed the machine's %d cluster nodes (grow the machine or set Env.PlaceOnBooster)",
			env.Ranks, env.Machine.clusterNodes)
	}
	results := make([][]float64, env.Ranks)
	traffic := make([]mpi.Stats, env.Ranks)
	body := func(c *mpi.Comm) error {
		out, err := fn(c)
		if err != nil {
			return err
		}
		results[c.Rank()] = out
		traffic[c.Rank()] = c.Stats()
		return nil
	}
	var want []float64
	var refErr error
	refDone := make(chan struct{})
	go func() {
		defer close(refDone)
		defer func() {
			if r := recover(); r != nil {
				refErr = fmt.Errorf("deep: %s reference panicked: %v", res.Workload, r)
			}
		}()
		want = reference()
	}()
	makespan, err := mpi.NewWorld(tr, opts...).Run(env.Ranks, body)
	<-refDone
	if err != nil {
		return err
	}
	if refErr != nil {
		return refErr
	}
	var got []float64
	for _, r := range results {
		got = append(got, r...)
	}
	if len(got) != len(want) {
		return fmt.Errorf("deep: %s gathered %d values, reference has %d",
			res.Workload, len(got), len(want))
	}
	maxDiff := 0.0
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > maxDiff {
			maxDiff = d
		}
	}
	var msgs, bytes uint64
	for _, st := range traffic {
		msgs += st.SentMsgs
		bytes += st.SentBytes
	}
	res.ModelTime = ModelTime(makespan.Seconds())
	res.addMetric("messages", float64(msgs), "")
	res.addMetric("sent_bytes", float64(bytes), "B")
	res.verify(maxDiff, env.tol(tol))
	meterModelEnergy(env, res, bytes)
	return nil
}

// meterModelEnergy fills res.Energy for a Global-MPI workload run on
// an energy-metered machine: the rank-hosting nodes at peak draw over
// the modelled makespan (an upper bound — per-rank wait states are
// not tracked at the transport cost-model layer) plus per-byte,
// per-hop fabric transfer energy for the traffic at the machine's
// mean route length, matching what the event-driven fabrics charge.
// Unmetered machines leave the result untouched.
func meterModelEnergy(env *Env, res *Result, sentBytes uint64) {
	m := env.Machine
	if !m.energy {
		return
	}
	// Mean route length of the rank traffic: a fat-tree route crosses
	// up to four links (node-leaf, leaf-spine, spine-leaf, leaf-node);
	// a k-ring torus dimension averages k/4 hops.
	model, emodel, name, hops := m.clusterNodeModel(), fabric.InfiniBandEnergy, "cluster", 4.0
	if env.PlaceOnBooster {
		model, emodel, name = m.boosterNodeModel(), fabric.ExtollEnergy, "booster"
		x, y, z := cbp.TorusShape(m.boosterNodes)
		hops = max(float64(x+y+z)/4, 1)
	}
	nodesJ := float64(env.Ranks) * model.PeakWatts * res.ModelTime.Seconds()
	fabricJ := float64(sentBytes) * emodel.PerByteJ * hops
	res.Energy = &EnergyReport{
		Joules:  nodesJ + fabricJ,
		Groups:  []GroupEnergy{{Name: name, Joules: nodesJ, BusyFraction: 1}},
		Charges: []Metric{{Name: "fabric", Value: fabricJ, Unit: "J"}},
	}
	res.addMetric("joules", res.Energy.Joules, "J")
}

// Cholesky is the OmpSs tiled Cholesky factorisation (paper slide
// 23), run on the dependency analyser: the task graph of a random SPD
// matrix is list-scheduled on Workers modelled OmpSs workers of one
// node (the booster's KNC with Env.PlaceOnBooster, else the cluster's
// Xeon), and the tile kernels run one at a time in a seeded random
// topological order of that graph, verified against the unblocked
// reference factorisation. Model time is the schedule's makespan.
type Cholesky struct {
	// N is the matrix dimension (default 64), TileSize the tile edge
	// (default 16), Workers the OmpSs worker count (default 8).
	N, TileSize, Workers int
}

// Name implements Workload.
func (Cholesky) Name() string { return "cholesky" }

// Run implements Workload.
func (c Cholesky) Run(ctx context.Context, env *Env) (*Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := positive(c.N, 64)
	ts := positive(c.TileSize, 16)
	workers := positive(c.Workers, 8)
	r := rng.New(env.Seed)
	src := linalg.SPDMatrix(n, r.Float64)
	ref := src.Clone()
	if err := linalg.CholeskyRef(ref); err != nil {
		return nil, err
	}
	ch, err := apps.NewCholesky(src, ts)
	if err != nil {
		return nil, err
	}
	model := env.Machine.clusterNodeModel()
	if env.PlaceOnBooster {
		model = env.Machine.boosterNodeModel()
	}
	g := ch.Graph(model)
	// Any topological order must reproduce the sequential result, so a
	// random one checks that the analysed dependences are enough.
	if err := ch.Execute(g.RandomOrder(r.Split())); err != nil {
		return nil, err
	}
	sched := g.Schedule(workers)
	got := ch.Result()
	maxDiff := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if d := math.Abs(got.At(i, j) - ref.At(i, j)); d > maxDiff {
				maxDiff = d
			}
		}
	}
	res := &Result{
		Workload:  "cholesky",
		Summary:   fmt.Sprintf("n=%d ts=%d workers=%d", n, ts, workers),
		ModelTime: ModelTime(sched.Makespan.Seconds()),
	}
	byName := make(map[string]int)
	for _, name := range g.Names {
		byName[name]++
	}
	res.addMetric("tasks", float64(g.Len()), "")
	res.addMetric("edges", float64(g.Edges()), "")
	res.addMetric("max_ready", float64(sched.MaxReady), "")
	for _, kernel := range []string{"potrf", "trsm", "gemm", "syrk"} {
		res.addMetric(kernel, float64(byName[kernel]), "")
	}
	res.verify(maxDiff, env.tol(1e-8))
	if env.Machine.tracing {
		// The modelled schedule, one lane per worker.
		t := obs.NewTrace()
		sc := t.Process("cholesky")
		for i, name := range g.Names {
			sc.Span(sched.Worker[i], "ompss", fmt.Sprintf("%s#%d", name, i), sched.Start[i], sched.Start[i]+g.Costs[i])
		}
		res.Trace = &TraceData{trace: t}
	}
	return res, nil
}

// SpMV is the paper's "highly scalable" application class: a sparse
// matrix-vector iteration with nearest-neighbour halo exchange,
// executed as real Global-MPI ranks and verified against the
// sequential reference.
type SpMV struct {
	// NX and NY are the grid dimensions (default 32x32), Iters the
	// iteration count (default 10).
	NX, NY, Iters int
}

// Name implements Workload.
func (SpMV) Name() string { return "spmv" }

// Run implements Workload.
func (s SpMV) Run(ctx context.Context, env *Env) (*Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	app := &apps.SpMV{NX: positive(s.NX, 32), NY: positive(s.NY, 32), Iters: positive(s.Iters, 10)}
	res := &Result{
		Workload: "spmv",
		Summary:  fmt.Sprintf("%dx%d iters=%d ranks=%d", app.NX, app.NY, app.Iters, env.Ranks),
	}
	if err := runVerified(ctx, env, res, app.RunSequential, 1e-9, app.Run); err != nil {
		return nil, err
	}
	return res, nil
}

// Stencil is a 2D 5-point stencil iteration with halo exchange over
// Global-MPI ranks, verified against the sequential reference.
type Stencil struct {
	// NX and NY are the grid dimensions (default 64x64), Iters the
	// iteration count (default 20).
	NX, NY, Iters int
}

// Name implements Workload.
func (Stencil) Name() string { return "stencil" }

// Run implements Workload.
func (s Stencil) Run(ctx context.Context, env *Env) (*Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	app := &apps.Stencil2D{NX: positive(s.NX, 64), NY: positive(s.NY, 64), Iters: positive(s.Iters, 20)}
	res := &Result{
		Workload: "stencil",
		Summary:  fmt.Sprintf("%dx%d iters=%d ranks=%d", app.NX, app.NY, app.Iters, env.Ranks),
	}
	res.addMetric("halo_bytes_per_iter_rank", float64(app.HaloBytesPerIter()), "B")
	if err := runVerified(ctx, env, res, app.RunSequential, 1e-9, app.Run); err != nil {
		return nil, err
	}
	return res, nil
}

// NBody is the all-to-all direct N-body integration over Global-MPI
// ranks, verified against the sequential reference. The body count
// must divide evenly over the ranks; when it does not, the workload
// rounds it up to the next multiple and reports the adjustment in the
// result summary and notes.
type NBody struct {
	// N is the requested body count (default 64), Steps the number of
	// integration steps (default 10).
	N, Steps int
}

// Name implements Workload.
func (NBody) Name() string { return "nbody" }

// Run implements Workload.
func (w NBody) Run(ctx context.Context, env *Env) (*Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	n := positive(w.N, 64)
	steps := positive(w.Steps, 10)
	requested := n
	if n%env.Ranks != 0 {
		n = ((n + env.Ranks - 1) / env.Ranks) * env.Ranks
	}
	app := &apps.NBody{N: n, Steps: steps, DT: 0.01}
	res := &Result{
		Workload: "nbody",
		Summary:  fmt.Sprintf("n=%d steps=%d ranks=%d", n, steps, env.Ranks),
	}
	if n != requested {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"body count rounded up from %d to %d (next multiple of %d ranks)",
			requested, n, env.Ranks))
	}
	res.addMetric("allgather_bytes_per_step", float64(app.CommBytesPerStep()), "B")
	if err := runVerified(ctx, env, res, app.RunSequential, 1e-9, app.Run); err != nil {
		return nil, err
	}
	return res, nil
}
