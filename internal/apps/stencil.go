package apps

import (
	"fmt"

	"repro/internal/mpi"
)

// Stencil2D is a Jacobi 5-point stencil iteration with row-block
// decomposition and halo exchange — the second regular workload, used
// by the offload-pressure experiment because its boundary traffic is
// analytically known (2 rows per rank per iteration).
type Stencil2D struct {
	NX, NY int
	Iters  int
}

// stencil tags.
const (
	tagStencilUp   mpi.Tag = 21
	tagStencilDown mpi.Tag = 22
)

// Run executes the iteration and returns the rank's block of the final
// grid (row-major, localRows x NX).
func (s *Stencil2D) Run(comm *mpi.Comm) ([]float64, error) {
	if s.NX < 3 || s.NY < 3 || s.Iters < 1 {
		return nil, fmt.Errorf("apps: stencil shape %dx%d iters %d", s.NX, s.NY, s.Iters)
	}
	size := comm.Size()
	if size > s.NY {
		return nil, fmt.Errorf("apps: %d ranks for %d rows", size, s.NY)
	}
	rank := comm.Rank()
	sp := &SpMV{NX: s.NX, NY: s.NY}
	lo, hi := sp.rowsOf(rank, size)
	rows := hi - lo

	// cur/next hold the block plus one halo row on each side.
	stride := s.NX
	cur := make([]float64, (rows+2)*stride)
	next := make([]float64, (rows+2)*stride)
	for r := 0; r < rows; r++ {
		for cx := 0; cx < stride; cx++ {
			g := (lo+r)*stride + cx
			cur[(r+1)*stride+cx] = initialStencilValue(g)
		}
	}

	for it := 0; it < s.Iters; it++ {
		if rank > 0 {
			comm.SendFloat64s(rank-1, tagStencilUp, cur[stride:2*stride])
		}
		if rank < size-1 {
			comm.SendFloat64s(rank+1, tagStencilDown, cur[rows*stride:(rows+1)*stride])
		}
		if rank < size-1 {
			comm.RecvFloat64s(rank+1, tagStencilUp, cur[(rows+1)*stride:])
		}
		if rank > 0 {
			comm.RecvFloat64s(rank-1, tagStencilDown, cur[:stride])
		}
		for r := 1; r <= rows; r++ {
			gy := lo + r - 1
			for cx := 0; cx < stride; cx++ {
				if gy == 0 || gy == s.NY-1 || cx == 0 || cx == stride-1 {
					next[r*stride+cx] = cur[r*stride+cx] // fixed boundary
					continue
				}
				next[r*stride+cx] = 0.25 * (cur[(r-1)*stride+cx] +
					cur[(r+1)*stride+cx] +
					cur[r*stride+cx-1] +
					cur[r*stride+cx+1])
			}
		}
		cur, next = next, cur
	}
	out := make([]float64, rows*stride)
	copy(out, cur[stride:(rows+1)*stride])
	return out, nil
}

// RunSequential is the single-goroutine reference.
func (s *Stencil2D) RunSequential() []float64 {
	stride := s.NX
	cur := make([]float64, s.NY*stride)
	next := make([]float64, s.NY*stride)
	for i := range cur {
		cur[i] = initialStencilValue(i)
	}
	for it := 0; it < s.Iters; it++ {
		for y := 0; y < s.NY; y++ {
			for x := 0; x < stride; x++ {
				if y == 0 || y == s.NY-1 || x == 0 || x == stride-1 {
					next[y*stride+x] = cur[y*stride+x]
					continue
				}
				next[y*stride+x] = 0.25 * (cur[(y-1)*stride+x] +
					cur[(y+1)*stride+x] +
					cur[y*stride+x-1] +
					cur[y*stride+x+1])
			}
		}
		cur, next = next, cur
	}
	return cur
}

func initialStencilValue(i int) float64 {
	return float64((i*40503)%977) / 976
}

// HaloBytesPerIter returns the bytes each interior rank exchanges per
// iteration (two rows out, two rows in).
func (s *Stencil2D) HaloBytesPerIter() int { return 4 * s.NX * 8 }
