// Package ml is a small, dependency-free machine-learning toolkit:
// dense matrices, linear and ridge regression, feature scaling, a
// feed-forward neural network with backpropagation, and an experience
// replay buffer. It provides exactly the primitives the paper's system
// needs — regression models for the warehouse cost model's parameter
// estimation (§5.2) and a deep Q-network for the data-learning loop
// (§6) — implemented on the standard library only.
package ml

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("ml: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("ml: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m × other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("ml: mul shape mismatch %dx%d × %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			ok := other.Row(k)
			for j := range oi {
				oi[j] += mik * ok[j]
			}
		}
	}
	return out
}

// MulVec returns m × v for a vector v of length m.Cols.
func (m *Matrix) MulVec(v []float64) []float64 {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("ml: mulvec shape mismatch %dx%d × %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// SolveCholesky solves A x = b for symmetric positive-definite A,
// destroying neither input. It is the workhorse of ridge regression,
// where A = XᵀX + λI is SPD by construction.
func SolveCholesky(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("ml: cholesky shape mismatch %dx%d, b %d", a.Rows, a.Cols, len(b))
	}
	// Decompose A = L Lᵀ.
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("ml: matrix not positive definite at pivot %d (%v)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	// Forward solve L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	// Back solve Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x, nil
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ml: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
