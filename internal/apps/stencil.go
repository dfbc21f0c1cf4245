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
	// The fixed boundary is in both grids from here on; the iterations
	// write interior cells only, skipping the rows that hold global rows
	// 0 and NY-1.
	copy(next, cur)
	r0, r1 := 1, rows+1
	if lo == 0 {
		r0 = 2
	}
	if hi == s.NY {
		r1 = rows
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
		jacobiRows(next, cur, stride, r0, r1)
		cur, next = next, cur
	}
	out := make([]float64, rows*stride)
	copy(out, cur[stride:(rows+1)*stride])
	return out, nil
}

// jacobiRows writes the interior cells of rows [r0, r1) of next from
// cur, both row-major with the given stride. The five slices are cut to
// one length so the compiler drops the bounds checks; the additions keep
// the order up + down + left + right.
func jacobiRows(next, cur []float64, stride, r0, r1 int) {
	n := stride - 2
	for r := r0; r < r1; r++ {
		o := r*stride + 1
		out := next[o : o+n]
		up := cur[o-stride : o-stride+n][:len(out)]
		down := cur[o+stride : o+stride+n][:len(out)]
		left := cur[o-1 : o-1+n][:len(out)]
		right := cur[o+1 : o+1+n][:len(out)]
		for i := range out {
			out[i] = 0.25 * (up[i] + down[i] + left[i] + right[i])
		}
	}
}

// RunSequential is the single-goroutine reference. It walks each
// interior row beside the rows above and below with its own loop, not
// jacobiRows, so the check of a distributed run covers the arithmetic
// as well as the decomposition. The sum is taken in jacobiRows' order
// (up, down, left, right), so the two agree bit for bit.
func (s *Stencil2D) RunSequential() []float64 {
	stride := s.NX
	cur := make([]float64, s.NY*stride)
	next := make([]float64, s.NY*stride)
	for i := range cur {
		cur[i] = initialStencilValue(i)
	}
	copy(next, cur) // the fixed boundary
	for it := 0; it < s.Iters; it++ {
		for y := stride; y < len(cur)-stride; y += stride {
			row := cur[y : y+stride]
			up := cur[y-stride : y][:len(row)]
			down := cur[y+stride : y+2*stride][:len(row)]
			out := next[y : y+stride][:len(row)]
			for x := 1; x < len(row)-1; x++ {
				out[x] = 0.25 * (up[x] + down[x] + row[x-1] + row[x+1])
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
