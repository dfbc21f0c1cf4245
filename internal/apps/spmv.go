package apps

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/mpi"
)

// SpMV is the distributed sparse matrix-vector iteration representing
// the paper's "highly scalable" application class: a 2D Laplacian
// partitioned into contiguous grid-row blocks, so each rank only
// exchanges one halo row with each neighbour per iteration — the
// "highly regular communication pattern" the paper attributes to
// BG/P-friendly codes.
type SpMV struct {
	NX, NY int // grid shape; matrix dimension is NX*NY
	Iters  int
}

// tags for the halo exchange.
const (
	tagHaloUp   mpi.Tag = 11
	tagHaloDown mpi.Tag = 12
)

// rowsOf returns the half-open grid-row range owned by rank.
func (s *SpMV) rowsOf(rank, size int) (lo, hi int) {
	base := s.NY / size
	rem := s.NY % size
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return
}

// Run executes Iters Jacobi-like multiplications y = A*x, x = y/8 on
// the communicator and returns the rank's local slice of the final
// vector. Each rank owns the matrix rows of its grid rows and keeps a
// one-grid-row halo above and below.
//
// The returned statistics of communication are observable through
// comm.Stats. The result is deterministic and equal to the sequential
// iteration (verified in the tests).
func (s *SpMV) Run(comm *mpi.Comm) ([]float64, error) {
	if s.NX < 1 || s.NY < 1 || s.Iters < 1 {
		return nil, fmt.Errorf("apps: SpMV shape %dx%d iters %d", s.NX, s.NY, s.Iters)
	}
	size := comm.Size()
	if size > s.NY {
		return nil, fmt.Errorf("apps: %d ranks for %d grid rows", size, s.NY)
	}
	rank := comm.Rank()
	lo, hi := s.rowsOf(rank, size)
	localRows := hi - lo

	full := linalg.Laplacian2D(s.NX, s.NY)
	local := full.RowSlice(lo*s.NX, hi*s.NX)

	// x covers the local rows plus halos; stored as a full-length
	// vector for column-index simplicity, only local+halo entries are
	// maintained.
	x := make([]float64, s.NX*s.NY)
	y := make([]float64, localRows*s.NX)
	for gy := lo; gy < hi; gy++ {
		for gx := 0; gx < s.NX; gx++ {
			i := gy*s.NX + gx
			x[i] = float64((i*2654435761)%1000) / 999
		}
	}

	for it := 0; it < s.Iters; it++ {
		// Halo exchange with up/down neighbours.
		if rank > 0 {
			comm.SendFloat64s(rank-1, tagHaloUp, x[lo*s.NX:(lo+1)*s.NX])
		}
		if rank < size-1 {
			comm.SendFloat64s(rank+1, tagHaloDown, x[(hi-1)*s.NX:hi*s.NX])
		}
		if rank < size-1 {
			comm.RecvFloat64s(rank+1, tagHaloUp, x[hi*s.NX:(hi+1)*s.NX])
		}
		if rank > 0 {
			comm.RecvFloat64s(rank-1, tagHaloDown, x[(lo-1)*s.NX:lo*s.NX])
		}
		local.MulVec(x, y)
		for i := range y {
			x[lo*s.NX+i] = y[i] / 8
		}
	}
	out := make([]float64, localRows*s.NX)
	copy(out, x[lo*s.NX:hi*s.NX])
	return out, nil
}

// RunSequential computes the same iteration on one goroutine, for
// verification.
func (s *SpMV) RunSequential() []float64 {
	full := linalg.Laplacian2D(s.NX, s.NY)
	n := s.NX * s.NY
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*2654435761)%1000) / 999
	}
	y := make([]float64, n)
	for it := 0; it < s.Iters; it++ {
		full.MulVec(x, y)
		for i := range x {
			x[i] = y[i] / 8
		}
	}
	return x
}
