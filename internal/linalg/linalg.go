// Package linalg provides the small dense linear-algebra kernels the
// mini-DFT substrate needs: symmetric eigendecomposition (cyclic Jacobi),
// Cholesky factorization, triangular solves and basic matrix products.
// Matrices are row-major [][]float64 of modest size (subspace dimensions,
// typically tens), so clarity beats blocking.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix [][]float64

// NewMatrix allocates an n x m zero matrix.
func NewMatrix(n, m int) Matrix {
	a := make(Matrix, n)
	backing := make([]float64, n*m)
	for i := range a {
		a[i], backing = backing[:m:m], backing[m:]
	}
	return a
}

// Identity returns the n x n identity.
func Identity(n int) Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a[i][i] = 1
	}
	return a
}

// Clone deep-copies the matrix.
func (a Matrix) Clone() Matrix {
	out := NewMatrix(len(a), len(a[0]))
	for i := range a {
		copy(out[i], a[i])
	}
	return out
}

// MatMul returns a*b.
func MatMul(a, b Matrix) Matrix {
	n, k := len(a), len(a[0])
	if len(b) != k {
		panic(fmt.Sprintf("linalg: matmul %dx%d by %dx%d", n, k, len(b), len(b[0])))
	}
	m := len(b[0])
	out := NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for l := 0; l < k; l++ {
			ail := a[i][l]
			if ail == 0 {
				continue
			}
			row := b[l]
			for j := 0; j < m; j++ {
				out[i][j] += ail * row[j]
			}
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a Matrix) Matrix {
	out := NewMatrix(len(a[0]), len(a))
	for i := range a {
		for j := range a[i] {
			out[j][i] = a[i][j]
		}
	}
	return out
}

// symEigMaxSweeps bounds the cyclic Jacobi iteration; Jacobi converges
// quadratically, so a matrix that has not converged by then is
// pathological and SymEig reports it instead of returning silently.
const symEigMaxSweeps = 100

// offDiagNorm2 returns the squared Frobenius norm of the strict upper
// triangle — the Jacobi convergence measure.
func offDiagNorm2(w Matrix) float64 {
	off := 0.0
	for i := range w {
		for j := i + 1; j < len(w); j++ {
			off += w[i][j] * w[i][j]
		}
	}
	return off
}

// SymEig diagonalizes a symmetric matrix with the cyclic Jacobi method,
// returning eigenvalues in ascending order and the corresponding
// eigenvectors as the COLUMNS of the returned matrix. The input is not
// modified.
//
// The eigenpair order is canonical: eigenvalues sort ascending with a
// deterministic tie-break (exactly equal eigenvalues keep the Jacobi
// column order, which is itself deterministic for bit-identical input),
// and each eigenvector's sign is normalized so its largest-magnitude
// component (first such index on magnitude ties) is non-negative. The
// band-parallel solver layer relies on this: every rank diagonalizes a
// bit-identical subspace matrix and must derive a bit-identical rotation.
//
// If the off-diagonal norm has not dropped below the convergence
// threshold after symEigMaxSweeps sweeps, SymEig returns an explicit
// non-convergence error rather than a silently unconverged basis.
func SymEig(a Matrix) (eig []float64, vecs Matrix, err error) {
	n := len(a)
	if n == 0 {
		return []float64{}, NewMatrix(0, 0), nil
	}
	w := a.Clone()
	v := Identity(n)
	converged := false
	for sweep := 0; sweep < symEigMaxSweeps; sweep++ {
		if offDiagNorm2(w) < 1e-28*float64(n*n) {
			converged = true
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w[p][q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				theta := (w[q][q] - w[p][p]) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					wkp, wkq := w[k][p], w[k][q]
					w[k][p] = c*wkp - s*wkq
					w[k][q] = s*wkp + c*wkq
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w[p][k], w[q][k]
					w[p][k] = c*wpk - s*wqk
					w[q][k] = s*wpk + c*wqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	if !converged && offDiagNorm2(w) >= 1e-28*float64(n*n) {
		return nil, nil, fmt.Errorf("linalg: Jacobi eigensolver did not converge in %d sweeps (off-diagonal %g)",
			symEigMaxSweeps, math.Sqrt(offDiagNorm2(w)))
	}
	// Extract and sort ascending, permuting eigenvector columns. The
	// insertion sort is stable (strict <), so exactly equal eigenvalues
	// keep the Jacobi column order — the deterministic tie-break the
	// canonical eigenpair order promises.
	eig = make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = w[i][i]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort: n is small
		for j := i; j > 0 && eig[idx[j]] < eig[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedEig := make([]float64, n)
	vecs = NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedEig[newCol] = eig[oldCol]
		// Canonical sign: make the largest-magnitude component (first
		// index on exact magnitude ties) non-negative. Negation is exact,
		// so this costs no accuracy and fixes the one residual degree of
		// freedom of a non-degenerate eigenvector.
		pivot := 0
		for r := 1; r < n; r++ {
			if math.Abs(v[r][oldCol]) > math.Abs(v[pivot][oldCol]) {
				pivot = r
			}
		}
		sign := 1.0
		if v[pivot][oldCol] < 0 {
			sign = -1
		}
		for r := 0; r < n; r++ {
			vecs[r][newCol] = sign * v[r][oldCol]
		}
	}
	return sortedEig, vecs, nil
}

// Cholesky factors a symmetric positive-definite matrix as L*Lᵀ,
// returning lower-triangular L. It returns an error if the matrix is
// not positive definite.
func Cholesky(a Matrix) (Matrix, error) {
	n := len(a)
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				// Reject non-positive pivots with a relative tolerance so
				// numerically singular matrices (e.g. overlaps of linearly
				// dependent states) are caught despite rounding.
				if sum <= 1e-12*math.Abs(a[i][i]) {
					return nil, fmt.Errorf("linalg: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// ForwardSolve solves L*x = b for lower-triangular L.
func ForwardSolve(l Matrix, b []float64) []float64 {
	n := len(l)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= float64(l[i][k] * x[k])
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// BackSolve solves Lᵀ*x = b for lower-triangular L.
func BackSolve(l Matrix, b []float64) []float64 {
	n := len(l)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= float64(l[k][i] * x[k])
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// InvertLower returns the inverse of a lower-triangular matrix.
func InvertLower(l Matrix) Matrix {
	n := len(l)
	inv := NewMatrix(n, n)
	for col := 0; col < n; col++ {
		e := make([]float64, n)
		e[col] = 1
		x := ForwardSolve(l, e)
		for r := 0; r < n; r++ {
			inv[r][col] = x[r]
		}
	}
	return inv
}

// MaxAbsDiff returns the largest elementwise difference of two
// equally-shaped matrices.
func MaxAbsDiff(a, b Matrix) float64 {
	max := 0.0
	for i := range a {
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); d > max {
				max = d
			}
		}
	}
	return max
}
