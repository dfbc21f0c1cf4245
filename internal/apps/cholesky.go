// Package apps contains the application workloads of the DEEP
// reproduction: the paper's tiled-Cholesky OmpSs example, a
// distributed sparse matrix-vector iteration (the "highly scalable"
// application class), a 2D Jacobi stencil, and synthetic communication
// pattern generators for the fabric experiments.
package apps

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/ompss"
	"repro/internal/sim"
)

// Cholesky is a tiled Cholesky factorisation driven exactly like the
// paper's OmpSs example (slide 23): the sequential tile loop nest
// submits potrf/trsm/gemm/syrk tasks whose input/inout annotations let
// the dependency analyser extract the dataflow parallelism.
type Cholesky struct {
	// NT is the tile grid dimension; TS the tile size.
	NT, TS int
	// Tiles holds the matrix, tile (i,j) at index i*NT+j; only the
	// lower triangle is factored.
	Tiles []*linalg.Tile
}

// NewCholesky packs an n x n SPD matrix (n divisible by ts) into
// tiles.
func NewCholesky(m *linalg.Matrix, ts int) (*Cholesky, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("apps: Cholesky of %dx%d matrix", m.Rows, m.Cols)
	}
	if ts <= 0 || m.Rows%ts != 0 {
		return nil, fmt.Errorf("apps: tile size %d does not divide %d", ts, m.Rows)
	}
	nt := m.Rows / ts
	c := &Cholesky{NT: nt, TS: ts, Tiles: make([]*linalg.Tile, nt*nt)}
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			t := linalg.NewTile(ts)
			for a := 0; a < ts; a++ {
				for b := 0; b < ts; b++ {
					t.Set(a, b, m.At(i*ts+a, j*ts+b))
				}
			}
			c.Tiles[i*nt+j] = t
		}
	}
	return c, nil
}

// tile returns tile (i, j).
func (c *Cholesky) tile(i, j int) *linalg.Tile { return c.Tiles[i*c.NT+j] }

// tasks walks the paper's loop nest once, in submission order, handing
// emit each task's name, dependences and kernel. Task costs are looked
// up in costs; a nil map costs nothing.
//
//	for k: potrf(A[k][k])
//	  for i>k: trsm(A[k][k], A[k][i])
//	  for i>k: { for j<i: gemm(A[k][i],A[k][j],A[j][i]); syrk(A[k][i],A[i][i]) }
func (c *Cholesky) tasks(costs map[string]sim.Time, emit func(name string, d ompss.Deps, run func() error)) {
	nt := c.NT
	for k := 0; k < nt; k++ {
		akk := c.tile(k, k)
		emit("potrf", ompss.Deps{InOut: []any{akk}, Priority: 3, Cost: costs["potrf"]},
			func() error { return linalg.Potrf(akk) })
		for i := k + 1; i < nt; i++ {
			aik := c.tile(i, k)
			emit("trsm", ompss.Deps{In: []any{akk}, InOut: []any{aik}, Priority: 2, Cost: costs["trsm"]},
				func() error { linalg.Trsm(akk, aik); return nil })
		}
		for i := k + 1; i < nt; i++ {
			aik := c.tile(i, k)
			for j := k + 1; j < i; j++ {
				ajk, aij := c.tile(j, k), c.tile(i, j)
				emit("gemm", ompss.Deps{In: []any{aik, ajk}, InOut: []any{aij}, Cost: costs["gemm"]},
					func() error { linalg.Gemm(aik, ajk, aij); return nil })
			}
			aii := c.tile(i, i)
			emit("syrk", ompss.Deps{In: []any{aik}, InOut: []any{aii}, Priority: 1, Cost: costs["syrk"]},
				func() error { linalg.Syrk(aik, aii); return nil })
		}
	}
}

// Execute runs the tile kernels one at a time in order, a topological
// order of Graph's task indices (GraphBuilder.RandomOrder draws one),
// and returns the first kernel error, such as Potrf's on a tile that is
// not positive definite.
func (c *Cholesky) Execute(order []int) error {
	var kernels []func() error
	c.tasks(nil, func(_ string, _ ompss.Deps, run func() error) { kernels = append(kernels, run) })
	for _, t := range order {
		if err := kernels[t](); err != nil {
			return err
		}
	}
	return nil
}

// Result reassembles the factored matrix (lower triangle; the strict
// upper triangle of off-diagonal tiles above the diagonal is left as
// the untouched input, so callers should compare lower triangles).
func (c *Cholesky) Result() *linalg.Matrix {
	n := c.NT * c.TS
	m := linalg.NewMatrix(n, n)
	for i := 0; i < c.NT; i++ {
		for j := 0; j < c.NT; j++ {
			t := c.tile(i, j)
			for a := 0; a < c.TS; a++ {
				for b := 0; b < c.TS; b++ {
					m.Set(i*c.TS+a, j*c.TS+b, t.At(a, b))
				}
			}
		}
	}
	return m
}

// kernelCosts models per-kernel durations on a node: flop counts of
// the four BLAS kernels at the node's per-core rate (tasks are
// single-core units in OmpSs).
func (c *Cholesky) kernelCosts(m machine.NodeModel) map[string]sim.Time {
	ts := float64(c.TS)
	perCore := m.PeakGFlops * 1e9 / float64(m.Cores)
	cost := func(flops float64) sim.Time {
		return sim.FromSeconds(flops / perCore)
	}
	return map[string]sim.Time{
		"potrf": cost(ts * ts * ts / 3),
		"trsm":  cost(ts * ts * ts),
		"gemm":  cost(2 * ts * ts * ts),
		"syrk":  cost(ts * ts * ts),
	}
}

// Graph records the task submission in a GraphBuilder, with kernel
// costs modelled on node model m.
func (c *Cholesky) Graph(m machine.NodeModel) *ompss.GraphBuilder {
	g := ompss.NewGraphBuilder()
	c.tasks(c.kernelCosts(m), func(name string, d ompss.Deps, _ func() error) { g.Add(name, d) })
	return g
}

// ForkJoinMakespan models the fork-join baseline: each outer iteration
// is a level set executed to completion before the next (barrier after
// each k), scheduled on w workers.
func (c *Cholesky) ForkJoinMakespan(m machine.NodeModel, w int) sim.Time {
	costs := c.kernelCosts(m)
	var total sim.Time
	nt := c.NT
	for k := 0; k < nt; k++ {
		// Phase 1: potrf alone.
		total += costs["potrf"]
		// Phase 2: trsms in parallel.
		trsms := nt - k - 1
		total += waves(trsms, w) * costs["trsm"]
		// Phase 3: gemms and syrks in parallel.
		gemms := (nt - k - 1) * (nt - k - 2) / 2
		syrks := nt - k - 1
		total += waves(gemms, w)*costs["gemm"] + waves(syrks, w)*costs["syrk"]
	}
	return total
}

// waves returns ceil(n/w) as a sim.Time multiplier.
func waves(n, w int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time((n + w - 1) / w)
}
