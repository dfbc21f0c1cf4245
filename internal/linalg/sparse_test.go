package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCSRFromDenseRoundTrip(t *testing.T) {
	d := NewMatrix(3, 4)
	copy(d.Data, []float64{
		1, 0, 2, 0,
		0, 0, 0, 3,
		4, 5, 0, 6,
	})
	m := NewCSRFromDense(d)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Val) != 6 {
		t.Fatalf("nnz = %d", len(m.Val))
	}
	x := []float64{1, 2, 3, 4}
	yd := make([]float64, 3)
	ys := make([]float64, 3)
	d.MulVec(x, yd)
	m.MulVec(x, ys)
	for i := range yd {
		if yd[i] != ys[i] {
			t.Fatalf("y[%d]: dense %v sparse %v", i, yd[i], ys[i])
		}
	}
}

// TestCSRSpMVMatchesDenseProperty: for random dense matrices, CSR SpMV
// equals dense SpMV.
func TestCSRSpMVMatchesDenseProperty(t *testing.T) {
	check := func(seed uint64, r8, c8 uint8) bool {
		rows := int(r8%16) + 1
		cols := int(c8%16) + 1
		r := rng.New(seed)
		d := NewMatrix(rows, cols)
		for i := range d.Data {
			if r.Bool(0.3) {
				d.Data[i] = r.Float64() - 0.5
			}
		}
		m := NewCSRFromDense(d)
		if m.Validate() != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.Float64()
		}
		yd := make([]float64, rows)
		ys := make([]float64, rows)
		d.MulVec(x, yd)
		m.MulVec(x, ys)
		for i := range yd {
			if math.Abs(yd[i]-ys[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRowSlice(t *testing.T) {
	m := Laplacian1D(10)
	s := m.RowSlice(3, 7)
	if s.Rows != 4 || s.Cols != 10 {
		t.Fatalf("slice shape %dx%d", s.Rows, s.Cols)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i * i)
	}
	yFull := make([]float64, 10)
	m.MulVec(x, yFull)
	yPart := make([]float64, 4)
	s.MulVec(x, yPart)
	for i := 0; i < 4; i++ {
		if yPart[i] != yFull[3+i] {
			t.Fatalf("row %d: %v vs %v", i, yPart[i], yFull[3+i])
		}
	}
}

func TestRowSliceBounds(t *testing.T) {
	m := Laplacian1D(5)
	defer func() {
		if recover() == nil {
			t.Fatal("bad slice accepted")
		}
	}()
	m.RowSlice(3, 2)
}

func TestLaplacian1DStructure(t *testing.T) {
	m := Laplacian1D(5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Val) != 3*5-2 {
		t.Fatalf("nnz = %d", len(m.Val))
	}
	// Constant vector maps to zero except at the boundary.
	x := []float64{1, 1, 1, 1, 1}
	y := make([]float64, 5)
	m.MulVec(x, y)
	if y[0] != 1 || y[4] != 1 {
		t.Fatalf("boundary values %v", y)
	}
	for i := 1; i < 4; i++ {
		if y[i] != 0 {
			t.Fatalf("interior row %d = %v", i, y[i])
		}
	}
}

func TestLaplacian2DStructure(t *testing.T) {
	m := Laplacian2D(4, 3)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 12 {
		t.Fatalf("rows = %d", m.Rows)
	}
	// Interior point has 5 entries; corner has 3.
	interior := m.RowPtr[6] - m.RowPtr[5] // (x=1,y=1)
	if interior != 5 {
		t.Fatalf("interior row has %d entries", interior)
	}
	corner := m.RowPtr[1] - m.RowPtr[0]
	if corner != 3 {
		t.Fatalf("corner row has %d entries", corner)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := Laplacian1D(4)
	m.ColIdx[0] = 99
	if err := m.Validate(); err == nil {
		t.Fatal("bad column index accepted")
	}
	m2 := Laplacian1D(4)
	m2.RowPtr[2] = 1000
	if err := m2.Validate(); err == nil {
		t.Fatal("bad row pointer accepted")
	}
}

func BenchmarkSpMVLaplacian2D(b *testing.B) {
	m := Laplacian2D(100, 100)
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
}

// NewCSRFromDense converts a dense matrix, dropping exact zeros.
func NewCSRFromDense(d *Matrix) *CSR {
	m := &CSR{Rows: d.Rows, Cols: d.Cols, RowPtr: make([]int, d.Rows+1)}
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if v := d.At(i, j); v != 0 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// Laplacian1D returns the n x n tridiagonal Laplacian (2 on the
// diagonal, -1 off), a standard regular sparse test matrix.
func Laplacian1D(n int) *CSR {
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		if i > 0 {
			m.ColIdx = append(m.ColIdx, i-1)
			m.Val = append(m.Val, -1)
		}
		m.ColIdx = append(m.ColIdx, i)
		m.Val = append(m.Val, 2)
		if i < n-1 {
			m.ColIdx = append(m.ColIdx, i+1)
			m.Val = append(m.Val, -1)
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}
