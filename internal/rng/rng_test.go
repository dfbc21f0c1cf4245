package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %x vs %x", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not equal the parent continuation stream.
	p2 := New(7)
	p2.Uint64() // consume the draw Split made
	diverged := false
	for i := 0; i < 64; i++ {
		if child.Uint64() != p2.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("split child replays parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const mean, n = 3.5, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > 0.1 {
		t.Fatalf("Exp mean = %v, want about %v", got, mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(21)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// With s=1, rank 0 should draw roughly 2x rank 1.
	ratio := float64(counts[0]) / float64(counts[1]+1)
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("zipf rank0/rank1 ratio = %v, want about 2", ratio)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(23)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 4000 || c > 6000 {
			t.Fatalf("s=0 bucket %d got %d, want about 5000", i, c)
		}
	}
}

func TestMul128(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 1, 0, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%x,%x) = (%x,%x), want (%x,%x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
