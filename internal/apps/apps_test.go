package apps

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/rng"
)

// factorAndVerify factors an SPD matrix with the tile kernels run in
// order(g) and compares the lower triangle against the unblocked
// reference.
func factorAndVerify(t *testing.T, n, ts int, order func(g *ompss.GraphBuilder) []int) {
	t.Helper()
	r := rng.New(42)
	src := linalg.SPDMatrix(n, r.Float64)
	ref := src.Clone()
	if err := linalg.CholeskyRef(ref); err != nil {
		t.Fatal(err)
	}
	c, err := NewCholesky(src, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Execute(order(c.Graph(machine.Xeon))); err != nil {
		t.Fatal(err)
	}
	got := c.Result()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(got.At(i, j)-ref.At(i, j)) > 1e-8 {
				t.Fatalf("L[%d,%d] = %v, want %v", i, j, got.At(i, j), ref.At(i, j))
			}
		}
	}
}

// TestCholeskyDataflowMatchesReference: dataflow execution orders of
// the analysed graph — the modelled w-worker schedule's start order and
// a seeded random topological order — factor the matrix exactly like
// the sequential reference.
func TestCholeskyDataflowMatchesReference(t *testing.T) {
	for _, cfg := range []struct{ n, ts, w int }{
		{8, 4, 1},
		{16, 4, 4},
		{32, 8, 8},
		{24, 8, 3},
	} {
		t.Run(fmt.Sprintf("n%d-ts%d-w%d", cfg.n, cfg.ts, cfg.w), func(t *testing.T) {
			factorAndVerify(t, cfg.n, cfg.ts, func(g *ompss.GraphBuilder) []int {
				// Ties broken by submission index keep predecessors first:
				// every kernel costs more than zero.
				s := g.Schedule(cfg.w)
				order := make([]int, g.Len())
				for i := range order {
					order[i] = i
				}
				sort.SliceStable(order, func(a, b int) bool { return s.Start[order[a]] < s.Start[order[b]] })
				return order
			})
			factorAndVerify(t, cfg.n, cfg.ts, func(g *ompss.GraphBuilder) []int {
				return g.RandomOrder(rng.New(uint64(cfg.w)))
			})
		})
	}
}

// TestCholeskyForkJoinMatchesReference: the fork-join order (each
// outer iteration's phases in submission order) factors exactly too,
// and its modelled makespan is never below the dataflow schedule's.
func TestCholeskyForkJoinMatchesReference(t *testing.T) {
	factorAndVerify(t, 16, 4, func(g *ompss.GraphBuilder) []int {
		order := make([]int, g.Len())
		for i := range order {
			order[i] = i
		}
		return order
	})
	c, _ := NewCholesky(linalg.NewMatrix(16, 16), 4)
	for _, w := range []int{1, 2, 4} {
		if df, fj := c.Graph(machine.Xeon).Makespan(w), c.ForkJoinMakespan(machine.Xeon, w); fj < df {
			t.Fatalf("%d workers: fork-join %v beats dataflow %v", w, fj, df)
		}
	}
}

func TestCholeskyRejectsBadShapes(t *testing.T) {
	if _, err := NewCholesky(linalg.NewMatrix(10, 10), 3); err == nil {
		t.Fatal("non-dividing tile accepted")
	}
	if _, err := NewCholesky(linalg.NewMatrix(4, 6), 2); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

func TestCholeskyNotSPDSurfacesError(t *testing.T) {
	m := linalg.NewMatrix(8, 8) // all zeros: not SPD
	c, err := NewCholesky(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Execute(c.Graph(machine.Xeon).RandomOrder(rng.New(1))); err == nil {
		t.Fatal("zero matrix factored without error")
	}
}

func TestCholeskyGraphShape(t *testing.T) {
	r := rng.New(1)
	m := linalg.SPDMatrix(32, r.Float64)
	c, _ := NewCholesky(m, 8) // NT = 4
	g := c.Graph(machine.Xeon)
	// Task count: sum_k [1 + (nt-k-1) + (nt-k-1)(nt-k-2)/2 + (nt-k-1)].
	nt := 4
	want := 0
	for k := 0; k < nt; k++ {
		r := nt - k - 1
		want += 1 + r + r*(r-2+1)/2 + r
	}
	if g.Len() != want {
		t.Fatalf("graph has %d tasks, want %d", g.Len(), want)
	}
	for i, succ := range g.Succ {
		for _, s := range succ {
			if s <= i {
				t.Fatalf("edge %d -> %d violates submission order", i, s)
			}
		}
	}
	// Dataflow beats fork-join at equal worker count.
	df := g.Makespan(8)
	fj := c.ForkJoinMakespan(machine.Xeon, 8)
	if df >= fj {
		t.Fatalf("dataflow %v not faster than fork-join %v", df, fj)
	}
}

func TestCholeskyGraphSpeedupGrows(t *testing.T) {
	r := rng.New(2)
	m := linalg.SPDMatrix(64, r.Float64)
	c, _ := NewCholesky(m, 8) // NT = 8
	g := c.Graph(machine.Xeon)
	m1 := g.Makespan(1)
	m4 := g.Makespan(4)
	m16 := g.Makespan(16)
	if !(m1 > m4 && m4 > m16) {
		t.Fatalf("makespans not improving: %v %v %v", m1, m4, m16)
	}
	sp4 := float64(m1) / float64(m4)
	if sp4 < 2.5 {
		t.Fatalf("4-worker speedup %.2f too low", sp4)
	}
}

func TestSpMVDistributedMatchesSequential(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 5} {
		ranks := ranks
		t.Run(fmt.Sprintf("ranks%d", ranks), func(t *testing.T) {
			s := &SpMV{NX: 8, NY: 10, Iters: 5}
			want := s.RunSequential()
			results := make([][]float64, ranks)
			_, err := mpi.Run(ranks, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
				out, err := s.Run(c)
				if err != nil {
					return err
				}
				results[c.Rank()] = out
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			for _, r := range results {
				got = append(got, r...)
			}
			if len(got) != len(want) {
				t.Fatalf("length %d vs %d", len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestSpMVValidation(t *testing.T) {
	s := &SpMV{NX: 4, NY: 2, Iters: 1}
	_, err := mpi.Run(4, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
		if _, err := s.Run(c); err == nil {
			return fmt.Errorf("4 ranks on 2 rows accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpMVCommunicationIsNearestNeighbourOnly(t *testing.T) {
	s := &SpMV{NX: 16, NY: 12, Iters: 3}
	_, err := mpi.Run(4, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
		if _, err := s.Run(c); err != nil {
			return err
		}
		st := c.Stats()
		// Interior ranks send 2 halos per iteration; edges 1.
		wantMsgs := uint64(2 * s.Iters)
		if c.Rank() == 0 || c.Rank() == 3 {
			wantMsgs = uint64(s.Iters)
		}
		if st.SentMsgs != wantMsgs {
			return fmt.Errorf("rank %d sent %d msgs, want %d", c.Rank(), st.SentMsgs, wantMsgs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStencilDistributedMatchesSequential(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		s := &Stencil2D{NX: 10, NY: 12, Iters: 6}
		want := s.RunSequential()
		results := make([][]float64, ranks)
		_, err := mpi.Run(ranks, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
			out, err := s.Run(c)
			if err != nil {
				return err
			}
			results[c.Rank()] = out
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, r := range results {
			got = append(got, r...)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("ranks=%d grid[%d] = %v, want %v", ranks, i, got[i], want[i])
			}
		}
	}
}

func TestStencilValidation(t *testing.T) {
	s := &Stencil2D{NX: 2, NY: 2, Iters: 1}
	_, err := mpi.Run(1, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
		if _, err := s.Run(c); err == nil {
			return fmt.Errorf("degenerate stencil accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if (&Stencil2D{NX: 10, NY: 10}).HaloBytesPerIter() != 4*10*8 {
		t.Fatal("halo bytes wrong")
	}
}

func TestUniformRandomPattern(t *testing.T) {
	r := rng.New(9)
	msgs := UniformRandom(16, 100, 64, r)
	if len(msgs) != 100 {
		t.Fatalf("messages = %d", len(msgs))
	}
	for _, m := range msgs {
		if m.Src == m.Dst {
			t.Fatal("self message")
		}
		if int(m.Src) >= 16 || int(m.Dst) >= 16 {
			t.Fatal("node out of range")
		}
	}
}
