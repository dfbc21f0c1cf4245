package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/deep"
	"repro/internal/apps"
	"repro/internal/cbp"
	"repro/internal/mpi"
)

// Shape of the mpi_halo op: a 32x64 stencil, 2000 iterations, on 16
// Global-MPI ranks placed on 16 booster nodes.
const (
	haloNX, haloNY, haloIters = 32, 64, 2000
	haloRanks                 = 16
	haloWarmUps               = 10
)

// haloOutcome is what one op must reproduce exactly.
type haloOutcome struct {
	modelTime deep.ModelTime
	messages  float64
}

// mpiHalo is the mpi_halo workload: rank-goroutine hand-off in
// internal/mpi, no event engine and no fabric events. The stencil's
// initial grid is fixed, so the seed has nothing to generate here.
type mpiHalo struct {
	seed uint64
	env  *deep.Env
	ref  *haloOutcome // the first warm-up op's outcome
}

func (w *mpiHalo) setUp() error {
	m, err := deep.NewMachine(deep.WithBoosterNodes(haloRanks), deep.WithSeed(w.seed))
	if err != nil {
		return err
	}
	w.env, w.ref = m.NewEnv(), nil
	w.env.Ranks, w.env.PlaceOnBooster = haloRanks, true
	for i := 0; i < haloWarmUps; i++ {
		if err := w.op(nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *mpiHalo) tearDown() {}

// op holds every outcome, SDK or twin, to the first warm-up op's —
// which setUp ran through the SDK.
func (w *mpiHalo) op(t *tracer) error {
	var got *haloOutcome
	var err error
	if t == nil {
		got, err = w.sdk()
	} else {
		got, err = w.twin(t)
	}
	if err != nil {
		return err
	}
	if w.ref == nil {
		w.ref = got
	} else if *got != *w.ref {
		return fmt.Errorf("stencil outcome %+v, first op had %+v", *got, *w.ref)
	}
	return nil
}

// sdk is the op as a user runs it.
func (w *mpiHalo) sdk() (*haloOutcome, error) {
	res, err := deep.Run(context.Background(), w.env, deep.Stencil{NX: haloNX, NY: haloNY, Iters: haloIters})
	if err != nil {
		return nil, err
	}
	if !res.Verified {
		return nil, fmt.Errorf("stencil not verified: max error %g", res.MaxError)
	}
	messages, _ := res.Metric("messages")
	return &haloOutcome{res.ModelTime, messages}, nil
}

// twin repeats deep.Stencil's three steps from the layer functions,
// one span each: the sequential reference, the ranks on an mpi.World
// over the machine's transport with booster placement, and the
// comparison of the gathered blocks with the reference.
func (w *mpiHalo) twin(t *tracer) (*haloOutcome, error) {
	app := &apps.Stencil2D{NX: haloNX, NY: haloNY, Iters: haloIters}
	root := t.open("op", -1)

	s := t.open("apps.stencil_reference", root)
	want := app.RunSequential()
	t.end(s)

	s = t.open("mpi.world_run", root)
	m := w.env.Machine
	tr := cbp.NewDeepTransport(m.ClusterNodes(), m.BoosterNodes())
	world := mpi.NewWorld(tr, mpi.WithPlacement(func(ep int) int { return tr.BoosterNode(ep % m.BoosterNodes()) }))
	blocks := make([][]float64, haloRanks)
	sent := make([]uint64, haloRanks)
	makespan, err := world.Run(haloRanks, func(c *mpi.Comm) error {
		out, err := app.Run(c)
		blocks[c.Rank()], sent[c.Rank()] = out, c.Stats().SentMsgs
		return err
	})
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.open("deep.verify", root)
	var messages uint64
	i, maxDiff := 0, 0.0
	for rank, block := range blocks {
		messages += sent[rank]
		for _, v := range block {
			if i < len(want) {
				maxDiff = max(maxDiff, math.Abs(v-want[i]))
			}
			i++
		}
	}
	t.end(s)
	t.end(root)
	if i != len(want) || maxDiff > 1e-9 {
		return nil, fmt.Errorf("twin: gathered %d of %d values, max error %g", i, len(want), maxDiff)
	}
	return &haloOutcome{deep.ModelTime(makespan.Seconds()), float64(messages)}, nil
}

func (w *mpiHalo) layers(b *tracedBlock, _ time.Duration) (map[string]float64, error) {
	dur := b.t.durations()
	worldMS := median(b.t.perOp(dur, "mpi.world_run"))
	allreduce, err := probeAllreduce()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"mpi.messages_per_op":       w.ref.messages,
		"mpi.world_run_ms":          worldMS,
		"mpi.us_per_msg":            worldMS * 1000 / w.ref.messages,
		"mpi.allreduce_us":          allreduce,
		"apps.stencil_reference_ms": median(b.t.perOp(dur, "apps.stencil_reference")),
	}, nil
}

// probeAllreduce times a 16-rank Allreduce of 8 floats over a free
// transport: the collective's hand-off cost alone.
func probeAllreduce() (float64, error) {
	const n = 4000
	data := make([]float64, 8)
	t0 := time.Now()
	_, err := mpi.Run(haloRanks, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
		for i := 0; i < n; i++ {
			c.Allreduce(data, mpi.OpSum)
		}
		return nil
	})
	return float64(time.Since(t0)) / 1e3 / n, err
}
