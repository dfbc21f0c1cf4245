package linalg

import "fmt"

// CSR is a compressed-sparse-row matrix, the storage format of the
// "sparse matrix-vector codes" the paper names as the canonical
// highly-scalable application class.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// Validate checks structural invariants: monotone row pointers and
// in-range column indices.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("linalg: CSR row pointer length %d for %d rows", len(m.RowPtr), m.Rows)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.Val) {
		return fmt.Errorf("linalg: CSR row pointer endpoints invalid")
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("linalg: CSR row %d has negative length", i)
		}
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("linalg: CSR index/value length mismatch")
	}
	for k, j := range m.ColIdx {
		if j < 0 || j >= m.Cols {
			return fmt.Errorf("linalg: CSR entry %d column %d out of range", k, j)
		}
	}
	return nil
}

// MulVec computes y = m * x.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("linalg: CSR MulVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// RowSlice returns a CSR holding rows [lo, hi) of m with the same
// column space — the row-block decomposition used by the distributed
// SpMV workload.
func (m *CSR) RowSlice(lo, hi int) *CSR {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("linalg: RowSlice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	start, end := m.RowPtr[lo], m.RowPtr[hi]
	s := &CSR{
		Rows:   hi - lo,
		Cols:   m.Cols,
		RowPtr: make([]int, hi-lo+1),
		ColIdx: append([]int(nil), m.ColIdx[start:end]...),
		Val:    append([]float64(nil), m.Val[start:end]...),
	}
	for i := lo; i <= hi; i++ {
		s.RowPtr[i-lo] = m.RowPtr[i] - start
	}
	return s
}

// Laplacian2D returns the 5-point stencil Laplacian on an nx x ny grid
// (dimension nx*ny), the communication structure of the paper's
// "highly regular" application class.
func Laplacian2D(nx, ny int) *CSR {
	n := nx * ny
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			add := func(j int, v float64) {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
			}
			if y > 0 {
				add(idx(x, y-1), -1)
			}
			if x > 0 {
				add(idx(x-1, y), -1)
			}
			add(idx(x, y), 4)
			if x < nx-1 {
				add(idx(x+1, y), -1)
			}
			if y < ny-1 {
				add(idx(x, y+1), -1)
			}
			m.RowPtr[idx(x, y)+1] = len(m.Val)
		}
	}
	return m
}
