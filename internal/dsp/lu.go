package dsp

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a numerically singular matrix in LU decomposition.
var ErrSingular = errors.New("dsp: matrix is singular to working precision")

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewMatrix allocates an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{N: m.N, Data: append([]float64(nil), m.Data...)}
}

// LU holds an LU decomposition with partial pivoting: P*A = L*U, with L
// unit-lower-triangular and U upper-triangular packed into one matrix.
type LU struct {
	lu   *Matrix
	perm []int
	// sign of the permutation, for determinant computation
}

// Decompose computes the LU decomposition of a (Doolittle with partial
// pivoting). a is not modified. Returns ErrSingular if a pivot underflows.
//
// The paper's application 1 uses LU decomposition (actor C) to solve the
// normal equations for the LPC predictor coefficients.
func Decompose(a *Matrix) (*LU, error) {
	n := a.N
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot: largest absolute value in the column at or below the
		// diagonal.
		pivot := col
		best := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				lu.Data[pivot*n+j], lu.Data[col*n+j] = lu.Data[col*n+j], lu.Data[pivot*n+j]
			}
			perm[pivot], perm[col] = perm[col], perm[pivot]
		}
		d := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / d
			lu.Set(r, col, f)
			for j := col + 1; j < n; j++ {
				lu.Set(r, j, lu.At(r, j)-f*lu.At(col, j))
			}
		}
	}
	return &LU{lu: lu, perm: perm}, nil
}

// Solve solves A x = b using the decomposition. b is not modified.
func (d *LU) Solve(b []float64) ([]float64, error) {
	n := d.lu.N
	if len(b) != n {
		return nil, fmt.Errorf("dsp: rhs length %d != matrix size %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation, then forward substitution (L has unit diagonal).
	for i := 0; i < n; i++ {
		x[i] = b[d.perm[i]]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= d.lu.At(i, j) * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= d.lu.At(i, j) * x[j]
		}
		x[i] /= d.lu.At(i, i)
	}
	return x, nil
}

// SolveSystem is a convenience wrapper: decompose a and solve for b.
func SolveSystem(a *Matrix, b []float64) ([]float64, error) {
	lu, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}

// ToeplitzFromAutocorrelation assembles the order-m LPC normal-equation
// matrix R with R[i][j] = r[|i-j|] from autocorrelation values r (length
// >= m).
func ToeplitzFromAutocorrelation(r []float64, m int) (*Matrix, error) {
	if len(r) < m {
		return nil, fmt.Errorf("dsp: need %d autocorrelation lags, have %d", m, len(r))
	}
	a := NewMatrix(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			k := i - j
			if k < 0 {
				k = -k
			}
			a.Set(i, j, r[k])
		}
	}
	return a, nil
}
