package apps

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/rng"
)

// naiveStencil is the per-cell loop with a boundary test in every cell
// that both Stencil2D.Run and RunSequential once used, kept verbatim as
// the bit-level reference for the branch-free row loops.
func naiveStencil(s *Stencil2D) []float64 {
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

// TestStencilBitIdentical: on random shapes and rank counts, the
// gathered Run blocks and RunSequential equal the per-cell loop bit for
// bit.
func TestStencilBitIdentical(t *testing.T) {
	r := rng.New(33)
	for shape := 0; shape < 40; shape++ {
		s := &Stencil2D{NX: 3 + r.Intn(38), NY: 3 + r.Intn(38), Iters: 1 + r.Intn(60)}
		want := naiveStencil(s)
		sameBits(t, s, "RunSequential", s.RunSequential(), want)
		for _, ranks := range []int{1, 2, 3, s.NY} {
			blocks := make([][]float64, ranks)
			_, err := mpi.Run(ranks, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
				out, err := s.Run(c)
				blocks[c.Rank()] = out
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			for _, b := range blocks {
				got = append(got, b...)
			}
			sameBits(t, s, fmt.Sprintf("Run on %d ranks", ranks), got, want)
		}
	}
}

func sameBits(t *testing.T, s *Stencil2D, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%dx%d iters %d, %s: %d values, want %d", s.NX, s.NY, s.Iters, what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%dx%d iters %d, %s: cell %d = %v, want %v", s.NX, s.NY, s.Iters, what, i, got[i], want[i])
		}
	}
}
