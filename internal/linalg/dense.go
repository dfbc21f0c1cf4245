// Package linalg supplies the numerical kernels the DEEP workloads
// compute with: dense tile operations for the OmpSs Cholesky example
// (potrf, trsm, syrk, gemm — the four kernels on the paper's Cholesky
// slide) and CSR sparse matrices for the "highly scalable sparse
// matrix-vector" application class.
//
// Everything operates on float64 in row-major order. The kernels are
// straightforward triple loops: the reproduction measures scheduling
// and communication behaviour, not BLAS micro-optimisation, but the
// math is real and verified against reference implementations.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Potrf when the input is not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Tile is an n x n dense block stored row-major.
type Tile struct {
	N    int
	Data []float64
}

// NewTile returns a zeroed n x n tile.
func NewTile(n int) *Tile {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid tile size %d", n))
	}
	return &Tile{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (t *Tile) At(i, j int) float64 { return t.Data[i*t.N+j] }

// Set assigns element (i, j).
func (t *Tile) Set(i, j int, v float64) { t.Data[i*t.N+j] = v }

// Clone returns a deep copy.
func (t *Tile) Clone() *Tile {
	c := NewTile(t.N)
	copy(c.Data, t.Data)
	return c
}

// Potrf computes the lower-triangular Cholesky factor of a in place:
// a = L * L^T, leaving L in the lower triangle (upper triangle is
// zeroed). Mirrors LAPACK dpotrf('L').
func Potrf(a *Tile) error {
	n := a.N
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= a.At(j, k) * a.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	// Zero the strict upper triangle so L is explicit.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, 0)
		}
	}
	return nil
}

// Trsm solves X * L^T = B for X where L is the lower-triangular factor
// in l, overwriting b with X. This is the dtrsm(R, L, T, N) variant the
// tiled Cholesky uses for its panel updates.
func Trsm(l, b *Tile) {
	if l.N != b.N {
		panic("linalg: Trsm tile size mismatch")
	}
	n := l.N
	for i := 0; i < n; i++ { // rows of B
		for j := 0; j < n; j++ { // solve in column order
			s := b.At(i, j)
			for k := 0; k < j; k++ {
				s -= b.At(i, k) * l.At(j, k)
			}
			b.Set(i, j, s/l.At(j, j))
		}
	}
}

// Syrk performs the symmetric rank-k update c -= a * a^T, updating the
// full square (the tiled algorithm only reads the lower triangle but
// keeping the full product simplifies verification).
func Syrk(a, c *Tile) {
	if a.N != c.N {
		panic("linalg: Syrk tile size mismatch")
	}
	n := a.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := c.At(i, j)
			for k := 0; k < n; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			c.Set(i, j, s)
		}
	}
}

// Gemm performs c -= a * b^T, the trailing update of the tiled
// Cholesky (dgemm(N, T) with alpha = -1, beta = 1).
func Gemm(a, b, c *Tile) {
	if a.N != b.N || a.N != c.N {
		panic("linalg: Gemm tile size mismatch")
	}
	n := a.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := c.At(i, j)
			for k := 0; k < n; k++ {
				s -= a.At(i, k) * b.At(j, k)
			}
			c.Set(i, j, s)
		}
	}
}

// Matrix is a dense row-major matrix, used for reference computations
// and verification.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = m * x.
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("linalg: MulVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// CholeskyRef factors m = L L^T in place (lower triangle), reference
// unblocked algorithm for verifying the tiled version.
func CholeskyRef(m *Matrix) error {
	if m.Rows != m.Cols {
		panic("linalg: CholeskyRef on non-square matrix")
	}
	t := &Tile{N: m.Rows, Data: m.Data}
	return Potrf(t)
}

// SPDMatrix builds a random symmetric positive-definite n x n matrix
// with a diagonal shift that guarantees positive definiteness. The
// source function supplies uniform [0,1) randomness.
func SPDMatrix(n int, uniform func() float64) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := uniform()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}
