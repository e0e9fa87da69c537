// Package linalg implements the small dense linear-algebra kernels needed by
// the time-series fitting code (innovations algorithm for MA models,
// Hannan–Rissanen least squares for ARMA models): a dense matrix type,
// LU solve with partial pivoting, and least squares via QR-free normal
// equations with Tikhonov regularization for rank-deficient designs.
package linalg

import (
	"errors"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
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

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("linalg: singular matrix")

// SolveLU solves A x = b in place using Gaussian elimination with partial
// pivoting. A must be square; A and b are not modified.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, errors.New("linalg: SolveLU needs a square matrix")
	}
	if len(b) != n {
		return nil, errors.New("linalg: SolveLU rhs dimension mismatch")
	}
	m := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[pivot*n+j] = m.Data[pivot*n+j], m.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Set(r, j, m.At(r, j)-f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// LeastSquaresRows solves min ||A x - b||² via the regularized normal
// equations (AᵀA + λI) x = Aᵀb. The small ridge term λ keeps nearly collinear
// designs (common when fitting ARMA models to low-variance load windows)
// solvable without materially biasing well-conditioned fits. The design is
// never materialized: fill(i, row) writes row i of A into row (length cols)
// and returns b[i], for i = 0..rows-1 in order. The normal equations only
// ever read one row at a time, so a caller whose rows are windows onto a
// series (the ARMA fit) needs no rows×cols matrix.
func LeastSquaresRows(rows, cols int, ridge float64, fill func(i int, row []float64) float64) ([]float64, error) {
	if ridge < 0 {
		return nil, errors.New("linalg: negative ridge")
	}
	n := cols
	ata := NewMatrix(n, n)
	atb := make([]float64, n)
	row := make([]float64, n)
	for i := 0; i < rows; i++ {
		bi := fill(i, row)
		for j := 0; j < n; j++ {
			if row[j] == 0 {
				continue
			}
			atb[j] += row[j] * bi
			for k := j; k < n; k++ {
				ata.Data[j*n+k] += row[j] * row[k]
			}
		}
	}
	// Mirror the upper triangle and add the ridge.
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			ata.Data[k*n+j] = ata.Data[j*n+k]
		}
		ata.Data[j*n+j] += ridge
	}
	return SolveLU(ata, atb)
}
