// Package linalg provides the small dense linear-algebra kernel the
// Gaussian-process (Kriging) surrogate needs: a row-major matrix, the
// Cholesky factorization of its Gram matrix, and the single- and multi-RHS
// triangular solves that use the factor. It is deliberately minimal — no
// views — since surrogate training matrices here are at most a few hundred
// rows.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L Lᵀ.
type Cholesky struct {
	L *Matrix
}

// NewCholesky factors the SPD matrix a. It returns an error if a is not
// positive definite (within floating-point tolerance). a is not modified.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		lj := l.Row(j)
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		lj[j] = ljj
		for i := j + 1; i < n; i++ {
			li := l.Row(i)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / ljj
		}
	}
	return &Cholesky{L: l}, nil
}

// Solve solves A x = b using the factorization.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n {
		panic("linalg: cholesky solve length mismatch")
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		li := c.L.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.At(k, i) * x[k]
		}
		x[i] = s / c.L.At(i, i)
	}
	return x
}

// SolveLBatch solves L Y = B column-wise for an n x m right-hand-side matrix
// (multi-RHS forward substitution). The GP's batch predictor uses it to
// reuse one Cholesky factor across a whole candidate pool instead of
// re-running forward substitution per point. Per column the arithmetic is
// performed in the same order as SolveVecL, so results are bit-identical.
func (c *Cholesky) SolveLBatch(b *Matrix) *Matrix {
	n := c.L.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("linalg: cholesky batch solve shape mismatch %d rows, want %d", b.Rows, n))
	}
	y := b.Clone()
	for i := 0; i < n; i++ {
		li := c.L.Row(i)
		yi := y.Row(i)
		for k := 0; k < i; k++ {
			lik := li[k]
			yk := y.Row(k)
			for j := range yi {
				yi[j] -= lik * yk[j]
			}
		}
		d := li[i]
		for j := range yi {
			yi[j] /= d
		}
	}
	return y
}

// SolveVecL solves L y = b (forward substitution only), used by the GP for
// predictive variance.
func (c *Cholesky) SolveVecL(b []float64) []float64 {
	n := c.L.Rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		li := c.L.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	return y
}

// LogDet returns log(det(A)) = 2 * sum(log(L_ii)).
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.L.Rows; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}
