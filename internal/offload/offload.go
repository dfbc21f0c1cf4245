// Package offload implements the DEEP offload model on top of the
// Global MPI runtime: a Cluster-side Manager spawns a group of worker
// processes on Booster nodes via CommSpawn (paper slides 21, 25-29),
// ships its kernel with the input data across the resulting
// inter-communicator, and collects the results.
//
// The paper's low-level offloading semantics map directly:
//
//   - "which code is to run on the Booster nodes" — Config.Kernel,
//     shared by construction between both sides;
//   - "where on the Booster it should run" — the spawn placement
//     function (booster node ids);
//   - "which data is to be copied before/after" — Request.Data and
//     the gathered result.
package offload

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// Request carries one kernel invocation's inputs to the booster group.
type Request struct {
	// Kernel names the invocation (error messages, shipped bytes).
	Kernel string
	// Data is the bulk input; each worker sees all of it plus its
	// rank and group size.
	Data []float64
	// FlopsPerRank, when non-zero, models the kernel's per-worker
	// computational weight on the booster node model.
	FlopsPerRank float64
}

// Kernel is a parallel booster kernel: it receives the worker's
// environment and the request's data and returns its partial result.
// Kernels must be deterministic functions of (rank, size, data) and of
// what their reverse calls return.
type Kernel func(env *Env, data []float64) ([]float64, error)

// result is one worker's partial result, or the gathered one: the
// partials concatenated in rank order. err carries a kernel failure,
// empty on success.
type result struct {
	data []float64
	err  string
}

// Tags used on the inter-communicator.
const (
	tagRequest  mpi.Tag = 1001
	tagResponse mpi.Tag = 1002
	tagStop     mpi.Tag = 1003
)

func requestBytes(r Request) int {
	return 8*len(r.Data) + len(r.Kernel) + 32
}

// Config tunes a Manager.
type Config struct {
	// Workers is the booster group size to spawn.
	Workers int
	// Spawn carries the process-creation cost model and placement.
	Spawn mpi.SpawnConfig
	// Model, when non-nil, charges each worker the modelled compute
	// time of its kernel share on this node model (typically
	// machine.KNC).
	Model *machine.NodeModel
	// Kernel is the code the booster workers run on every Invoke.
	Kernel Kernel
	// Services are the cluster-side functions the kernel may invoke
	// through Env.CallCluster while an Invoke is in flight.
	Services map[string]Service
}

// Manager is the cluster side of the offload bridge. Create it
// collectively on the cluster communicator with NewManager, invoke the
// kernel from rank 0, and shut it down from rank 0 once every rank is
// done with it.
type Manager struct {
	inter    *mpi.Comm
	services map[string]Service
	// ReverseCalls counts cluster-side services executed on behalf of
	// booster kernels.
	ReverseCalls uint64
}

// NewManager collectively spawns the booster worker group. Every rank
// of comm must call it with identical arguments.
func NewManager(comm *mpi.Comm, cfg Config) *Manager {
	if cfg.Workers <= 0 {
		panic(fmt.Sprintf("offload: %d workers", cfg.Workers))
	}
	inter := comm.Spawn(cfg.Workers, cfg.Spawn, func(w *mpi.Comm) error {
		return workerLoop(w, cfg.Kernel, cfg.Model)
	})
	return &Manager{inter: inter, services: cfg.Services}
}

// Invoke ships the request to the booster group, blocks for the
// gathered response, and returns its data. Only rank 0 of the spawning
// communicator may invoke: it is the one parent the booster root
// listens to.
func (m *Manager) Invoke(req Request) ([]float64, error) {
	m.inter.Send(0, tagRequest, mpi.Sized{Data: req, Bytes: requestBytes(req)})
	// While the kernel runs, the invoking rank doubles as the
	// reverse-offload service host: booster workers may call back.
	var resp result
	for {
		v, st := m.inter.Recv(mpi.AnySource, mpi.AnyTag)
		if st.Tag == tagReverse {
			m.ReverseCalls++
			handleReverse(m.inter, m.services, st.Source, v)
			continue
		}
		resp = mpi.Unwrap(v).(result)
		break
	}
	if resp.err != "" {
		return nil, fmt.Errorf("offload: kernel %q failed: %s", req.Kernel, resp.err)
	}
	return resp.data, nil
}

// Shutdown stops the booster workers. Call exactly once, from rank 0,
// after all invocations completed.
func (m *Manager) Shutdown() {
	m.inter.Send(0, tagStop, nil)
}

// workerLoop is the booster-side main: rank 0 receives requests from
// parent rank 0, broadcasts them to the group, everyone computes its
// partial, partials are gathered at rank 0 and the concatenated result
// returns to the parent.
func workerLoop(w *mpi.Comm, kernel Kernel, model *machine.NodeModel) error {
	parent := w.Parent()
	if parent == nil {
		return errors.New("offload: worker without parent inter-communicator")
	}
	for {
		var req Request
		stop := false
		if w.Rank() == 0 {
			v, st := parent.Recv(0, mpi.AnyTag)
			if st.Tag == tagStop {
				stop = true
			} else {
				req = mpi.Unwrap(v).(Request)
			}
		}
		// Distribute the request (or the stop signal) to the group.
		ctl := w.Bcast(0, mpi.Sized{
			Data:  ctlMsg{req: req, stop: stop},
			Bytes: requestBytes(req) + 16,
		})
		c := mpi.Unwrap(ctl).(ctlMsg)
		if c.stop {
			return nil
		}
		if model != nil && c.req.FlopsPerRank > 0 {
			w.Advance(model.Time(machine.Kernel{
				Flops:            c.req.FlopsPerRank,
				ParallelFraction: 1,
			}, model.Cores))
		}
		partial, err := kernel(newEnv(w), c.req.Data)
		// Gather partials; rank 0 assembles in rank order.
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		gathered := w.Gather(0, mpi.Sized{
			Data:  result{data: partial, err: errStr},
			Bytes: 8*len(partial) + 16,
		})
		if w.Rank() == 0 {
			resp := result{}
			for _, g := range gathered {
				p := mpi.Unwrap(g).(result)
				if p.err != "" && resp.err == "" {
					resp.err = p.err
				}
				resp.data = append(resp.data, p.data...)
			}
			if resp.err != "" {
				resp.data = nil
			}
			parent.Send(0, tagResponse, mpi.Sized{
				Data: resp, Bytes: 8*len(resp.data) + 16,
			})
		}
	}
}

type ctlMsg struct {
	req  Request
	stop bool
}

// ShardRange splits n items over size workers and returns rank's
// half-open range [lo, hi); the first n%size workers get one extra.
func ShardRange(n, rank, size int) (lo, hi int) {
	base := n / size
	rem := n % size
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return
}
