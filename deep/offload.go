package deep

import (
	"context"
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/offload"
)

// OffloadKernel is a parallel booster kernel: it receives the full
// input plus its worker rank and group size and returns its partial
// result (concatenated in rank order by the offload layer). Kernels
// must be deterministic functions of (rank, size, data).
type OffloadKernel func(rank, size int, data []float64) ([]float64, error)

// ServiceCall invokes a named cluster-side service from inside a
// reverse-offload kernel.
type ServiceCall func(service string, args []float64) ([]float64, error)

// ReverseOffloadKernel is a booster kernel that may call back into
// cluster-side services mid-kernel through call — the paper's
// "main() stays on the Cluster" split.
type ReverseOffloadKernel func(call ServiceCall, rank, size int, data []float64) ([]float64, error)

// ClusterService is a cluster-side function reverse-offload kernels
// may invoke (parameter databases, file systems — anything that must
// live with main()).
type ClusterService func(args []float64) ([]float64, error)

// ShardRange computes the [lo, hi) slice of an n-element input that
// worker rank of size owns — the canonical data decomposition for
// offload kernels.
func ShardRange(n, rank, size int) (lo, hi int) { return offload.ShardRange(n, rank, size) }

// Offload runs one kernel over the machine's spawned booster worker
// group: the paper's offload path (MPI_Comm_spawn + kernel shipping),
// including the reverse-offload channel when the kernel needs
// cluster-side services.
type Offload struct {
	// Kernel names the kernel (display and registry key).
	Kernel string
	// Data is the bulk input, sharded over the workers.
	Data []float64
	// FlopsPerRank, when non-zero, models the kernel's per-worker
	// computational weight on the booster node model.
	FlopsPerRank float64
	// Fn is a plain kernel. Exactly one of Fn and Reverse must be set.
	Fn OffloadKernel
	// Reverse is a kernel that calls back into Services mid-kernel.
	Reverse ReverseOffloadKernel
	// Services are the cluster-side functions Reverse may call.
	Services map[string]ClusterService
	// Want, when non-nil, is the expected gathered output; the run
	// verifies against it within Tol (0 = exact), or within Env.Tol
	// when that is set.
	Want []float64
	// Tol is the admissible absolute error per element.
	Tol float64
}

// Name implements Workload.
func (o Offload) Name() string { return "offload" }

// Run implements Workload.
func (o Offload) Run(ctx context.Context, env *Env) (*Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if (o.Fn == nil) == (o.Reverse == nil) {
		return nil, fmt.Errorf("deep: offload workload needs exactly one of Fn and Reverse")
	}
	if env.PlaceOnBooster {
		return nil, fmt.Errorf("deep: offload ranks live on the cluster; Env.PlaceOnBooster is not supported")
	}
	name := o.Kernel
	if name == "" {
		name = "kernel"
	}
	kernel := func(e *offload.Env, data []float64) ([]float64, error) {
		return o.Fn(e.Rank, e.Size, data)
	}
	var services map[string]offload.Service
	if o.Reverse != nil {
		kernel = func(e *offload.Env, data []float64) ([]float64, error) {
			return o.Reverse(e.CallCluster, e.Rank, e.Size, data)
		}
		services = make(map[string]offload.Service, len(o.Services))
		for sname, svc := range o.Services {
			services[sname] = offload.Service(svc)
		}
	}
	m := env.Machine
	// The Global-MPI world: cluster ranks spread over the cluster
	// nodes; the spawned workers get booster placement.
	tr := m.transport()
	world := mpi.NewWorld(tr, mpi.WithPlacement(func(ep int) int { return ep % m.clusterNodes }))
	cfg := offload.Config{
		Workers:  m.boosterWorkers,
		Spawn:    mpi.DefaultSpawnConfig(),
		Kernel:   kernel,
		Services: services,
	}
	cfg.Spawn.Place = tr.BoosterNode
	if m.modelCompute {
		knc := machine.KNC
		cfg.Model = &knc
	}
	var out []float64
	var reverseCalls uint64
	makespan, err := world.Run(env.Ranks, func(c *mpi.Comm) error {
		boost := offload.NewManager(c, cfg)
		var err error
		if c.Rank() == 0 { // rank 0 drives the invocation
			out, err = boost.Invoke(offload.Request{Kernel: name, Data: o.Data, FlopsPerRank: o.FlopsPerRank})
			reverseCalls = boost.ReverseCalls
		}
		// Quiesce before stopping the workers.
		c.Barrier()
		if c.Rank() == 0 {
			boost.Shutdown()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workload:  "offload",
		Summary:   fmt.Sprintf("kernel=%s workers=%d n=%d", name, m.boosterWorkers, len(o.Data)),
		ModelTime: ModelTime(makespan.Seconds()),
		Verified:  true,
	}
	res.addMetric("outputs", float64(len(out)), "")
	if o.Reverse != nil {
		res.addMetric("reverse_calls", float64(reverseCalls), "")
	}
	if m.energy {
		// Both sides are lit for the offload window: the cluster ranks
		// drive the invocation, the worker group computes the kernel.
		sec := makespan.Seconds()
		cl, bo := m.clusterNodeModel(), m.boosterNodeModel()
		clusterJ := float64(env.Ranks) * cl.PeakWatts * sec
		boosterJ := float64(m.boosterWorkers) * bo.PeakWatts * sec
		rep := &EnergyReport{
			Joules: clusterJ + boosterJ,
			Groups: []GroupEnergy{
				{Name: "cluster", Joules: clusterJ, BusyFraction: 1},
				{Name: "booster", Joules: boosterJ, BusyFraction: 1},
			},
		}
		if o.FlopsPerRank > 0 && rep.Joules > 0 {
			rep.GFlopsPerWatt = o.FlopsPerRank * float64(m.boosterWorkers) / rep.Joules / 1e9
		}
		res.Energy = rep
		res.addMetric("joules", rep.Joules, "J")
	}
	if o.Want != nil {
		if len(out) != len(o.Want) {
			return nil, fmt.Errorf("deep: offload gathered %d values, reference has %d",
				len(out), len(o.Want))
		}
		maxDiff := 0.0
		for i := range o.Want {
			if d := math.Abs(out[i] - o.Want[i]); d > maxDiff {
				maxDiff = d
			}
		}
		res.verify(maxDiff, env.tol(o.Tol))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("output: %v", headOf(out, 8)))
	return res, nil
}

// headOf returns the first n values for display.
func headOf(v []float64, n int) []float64 {
	return v[:min(n, len(v))]
}
