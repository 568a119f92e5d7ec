// Package linalg provides the small dense linear-algebra kernels the
// mini-DFT substrate needs: symmetric eigendecomposition (cyclic Jacobi),
// Cholesky factorization, triangular solves and basic matrix products.
// Matrices are row-major [][]float64 of modest size (subspace dimensions,
// typically tens), so clarity beats blocking.
//
// Each routine writes a caller-owned output (the Into forms), and
// SymEigInto and InvertLowerInto take their scratch from a Work sized
// once per order, so a solver that runs them every step allocates
// nothing; the allocating forms wrap them. Every product is rounded
// before it is added (the float64 conversions keep an FMA-capable
// architecture from fusing), so the results have the same bits on every
// architecture.
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

// MatMul returns a*b.
func MatMul(a, b Matrix) Matrix { return MatMulInto(NewMatrix(len(a), len(b[0])), a, b) }

// MatMulInto stores a*b in out, which must not alias a or b, and
// returns it.
func MatMulInto(out, a, b Matrix) Matrix {
	n, k := len(a), len(a[0])
	if len(b) != k || len(out) != n || len(out[0]) != len(b[0]) {
		panic(fmt.Sprintf("linalg: matmul %dx%d by %dx%d into %dx%d", n, k, len(b), len(b[0]), len(out), len(out[0])))
	}
	m := len(b[0])
	for i := 0; i < n; i++ {
		clear(out[i])
		for l := 0; l < k; l++ {
			ail := a[i][l]
			if ail == 0 {
				continue
			}
			row := b[l]
			for j := 0; j < m; j++ {
				out[i][j] += float64(ail * row[j])
			}
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a Matrix) Matrix { return TransposeInto(NewMatrix(len(a[0]), len(a)), a) }

// TransposeInto stores aᵀ in out, which must not alias a, and returns
// it.
func TransposeInto(out, a Matrix) Matrix {
	for i := range a {
		for j := range a[i] {
			out[j][i] = a[i][j]
		}
	}
	return out
}

// Work is the scratch of SymEigInto and InvertLowerInto for matrices of
// one order n.
type Work struct {
	w, v Matrix
	diag []float64
	idx  []int
}

// NewWork allocates the scratch for matrices of order n.
func NewWork(n int) *Work {
	return &Work{w: NewMatrix(n, n), v: NewMatrix(n, n), diag: make([]float64, n), idx: make([]int, n)}
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
			off += float64(w[i][j] * w[i][j])
		}
	}
	return off
}

// SymEig diagonalizes a symmetric matrix with the cyclic Jacobi method,
// returning eigenvalues in ascending order and the corresponding
// eigenvectors as the COLUMNS of the returned matrix (SymEigInto).
func SymEig(a Matrix) (eig []float64, vecs Matrix, err error) {
	eig, vecs = make([]float64, len(a)), NewMatrix(len(a), len(a))
	if err := SymEigInto(eig, vecs, a, NewWork(len(a))); err != nil {
		return nil, nil, err
	}
	return eig, vecs, nil
}

// SymEigInto diagonalizes a symmetric n x n matrix with the cyclic
// Jacobi method, storing the eigenvalues in ascending order in eig and
// the corresponding eigenvectors as the COLUMNS of vecs; ws is scratch
// of order n. The input is not modified.
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
// threshold after symEigMaxSweeps sweeps, SymEigInto returns an explicit
// non-convergence error rather than a silently unconverged basis.
func SymEigInto(eig []float64, vecs, a Matrix, ws *Work) error {
	n := len(a)
	if n == 0 {
		return nil
	}
	w, v := ws.w, ws.v
	for i := range a {
		copy(w[i], a[i])
		clear(v[i])
		v[i][i] = 1
	}
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
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				for k := 0; k < n; k++ {
					wkp, wkq := w[k][p], w[k][q]
					w[k][p] = float64(c*wkp) - float64(s*wkq)
					w[k][q] = float64(s*wkp) + float64(c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w[p][k], w[q][k]
					w[p][k] = float64(c*wpk) - float64(s*wqk)
					w[q][k] = float64(s*wpk) + float64(c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = float64(c*vkp) - float64(s*vkq)
					v[k][q] = float64(s*vkp) + float64(c*vkq)
				}
			}
		}
	}
	if !converged && offDiagNorm2(w) >= 1e-28*float64(n*n) {
		return fmt.Errorf("linalg: Jacobi eigensolver did not converge in %d sweeps (off-diagonal %g)",
			symEigMaxSweeps, math.Sqrt(offDiagNorm2(w)))
	}
	// Extract and sort ascending, permuting eigenvector columns. The
	// insertion sort is stable (strict <), so exactly equal eigenvalues
	// keep the Jacobi column order — the deterministic tie-break the
	// canonical eigenpair order promises.
	diag, idx := ws.diag, ws.idx
	for i := 0; i < n; i++ {
		diag[i], idx[i] = w[i][i], i
	}
	for i := 1; i < n; i++ { // insertion sort: n is small
		for j := i; j > 0 && diag[idx[j]] < diag[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for newCol, oldCol := range idx {
		eig[newCol] = diag[oldCol]
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
	return nil
}

// Cholesky factors a symmetric positive-definite matrix as L*Lᵀ,
// returning lower-triangular L (CholeskyInto), or nil and an error if
// the matrix is not positive definite.
func Cholesky(a Matrix) (Matrix, error) {
	l := NewMatrix(len(a), len(a))
	if err := CholeskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto factors a symmetric positive-definite matrix as L*Lᵀ,
// storing lower-triangular L in l (its upper triangle is zeroed). It
// returns an error, with l partly written, if the matrix is not
// positive definite.
func CholeskyInto(l, a Matrix) error {
	n := len(a)
	for i := 0; i < n; i++ {
		clear(l[i][i+1:])
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= float64(l[i][k] * l[j][k])
			}
			if i == j {
				// Reject non-positive pivots with a relative tolerance so
				// numerically singular matrices (e.g. overlaps of linearly
				// dependent states) are caught despite rounding.
				if sum <= 1e-12*math.Abs(a[i][i]) {
					return fmt.Errorf("linalg: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return nil
}

// ForwardSolveInto solves L*x = b for lower-triangular L into x, which
// may be b, and returns x.
func ForwardSolveInto(x []float64, l Matrix, b []float64) []float64 {
	for i := range l {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= float64(l[i][k] * x[k])
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// BackSolveInto solves Lᵀ*x = b for lower-triangular L into x, which
// may be b, and returns x.
func BackSolveInto(x []float64, l Matrix, b []float64) []float64 {
	n := len(l)
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
	return InvertLowerInto(NewMatrix(len(l), len(l)), l, NewWork(len(l)))
}

// InvertLowerInto stores the inverse of the lower-triangular l in inv,
// one forward solve per column with ws (of l's order) as the column's
// scratch, and returns inv.
func InvertLowerInto(inv, l Matrix, ws *Work) Matrix {
	x := ws.diag
	for col := range l {
		clear(x)
		x[col] = 1
		ForwardSolveInto(x, l, x)
		for r, v := range x {
			inv[r][col] = v
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
