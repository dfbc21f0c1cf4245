package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPotrfKnownFactor(t *testing.T) {
	// A = [[4,12,-16],[12,37,-43],[-16,-43,98]] has L = [[2],[6,1],[-8,5,3]].
	a := NewTile(3)
	vals := []float64{4, 12, -16, 12, 37, -43, -16, -43, 98}
	copy(a.Data, vals)
	if err := Potrf(a); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 0, 6, 1, 0, -8, 5, 3}
	for i, w := range want {
		if math.Abs(a.Data[i]-w) > 1e-12 {
			t.Fatalf("L[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	a := NewTile(2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	err := Potrf(a)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestPotrfReconstruction(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{1, 2, 5, 16, 33} {
		m := SPDMatrix(n, r.Float64)
		orig := m.Clone()
		if err := CholeskyRef(m); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Reconstruct L * L^T.
		rec := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k <= min(i, j); k++ {
					s += m.At(i, k) * m.At(j, k)
				}
				rec.Set(i, j, s)
			}
		}
		if d := MaxAbsDiff(orig, rec); d > 1e-9*FrobeniusNorm(orig) {
			t.Fatalf("n=%d: reconstruction error %g", n, d)
		}
	}
}

func TestTrsmSolves(t *testing.T) {
	r := rng.New(7)
	n := 8
	spd := SPDMatrix(n, r.Float64)
	l := &Tile{N: n, Data: spd.Data}
	if err := Potrf(l); err != nil {
		t.Fatal(err)
	}
	b := NewTile(n)
	for i := range b.Data {
		b.Data[i] = r.Float64()
	}
	x := b.Clone()
	Trsm(l, x)
	// Check X * L^T == B.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += x.At(i, k) * l.At(j, k)
			}
			if math.Abs(s-b.At(i, j)) > 1e-9 {
				t.Fatalf("(X L^T)[%d,%d] = %v, want %v", i, j, s, b.At(i, j))
			}
		}
	}
}

func TestSyrkMatchesGemm(t *testing.T) {
	// Syrk(a, c) must equal Gemm(a, a, c).
	r := rng.New(13)
	n := 6
	a := NewTile(n)
	for i := range a.Data {
		a.Data[i] = r.Float64()
	}
	c1, c2 := NewTile(n), NewTile(n)
	for i := range c1.Data {
		v := r.Float64()
		c1.Data[i], c2.Data[i] = v, v
	}
	Syrk(a, c1)
	Gemm(a, a, c2)
	for i := range c1.Data {
		if math.Abs(c1.Data[i]-c2.Data[i]) > 1e-12 {
			t.Fatalf("Syrk/Gemm disagree at %d: %v vs %v", i, c1.Data[i], c2.Data[i])
		}
	}
}

func TestGemmNumeric(t *testing.T) {
	a := NewTile(2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewTile(2)
	copy(b.Data, []float64{5, 6, 7, 8})
	c := NewTile(2)
	Gemm(a, b, c) // c -= a * b^T
	want := []float64{-(1*5 + 2*6), -(1*7 + 2*8), -(3*5 + 4*6), -(3*7 + 4*8)}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestTileSizeMismatchPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { Trsm(NewTile(2), NewTile(3)) },
		func() { Syrk(NewTile(2), NewTile(3)) },
		func() { Gemm(NewTile(2), NewTile(2), NewTile(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: mismatch accepted", i)
				}
			}()
			fn()
		}()
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 1, 1}
	y := make([]float64, 2)
	m.MulVec(x, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("y = %v", y)
	}
}

func TestSPDMatrixIsSymmetric(t *testing.T) {
	r := rng.New(3)
	m := SPDMatrix(10, r.Float64)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestSPDAlwaysFactors(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%24) + 1
		r := rng.New(seed)
		m := SPDMatrix(n, r.Float64)
		return CholeskyRef(m) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPotrf64(b *testing.B) {
	r := rng.New(1)
	src := SPDMatrix(64, r.Float64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		if err := CholeskyRef(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGemm64(b *testing.B) {
	r := rng.New(1)
	a, bb, c := NewTile(64), NewTile(64), NewTile(64)
	for i := range a.Data {
		a.Data[i], bb.Data[i], c.Data[i] = r.Float64(), r.Float64(), r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(a, bb, c)
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func FrobeniusNorm(m *Matrix) float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
