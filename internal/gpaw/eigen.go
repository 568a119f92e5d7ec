package gpaw

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/stencil"
)

// EigenSolver finds the lowest eigenstates of a Hamiltonian by damped
// subspace (block power) iteration with Rayleigh–Ritz rotation — the
// same ingredients as GPAW's self-consistent eigensolvers: apply H to
// every wave-function (the paper's dominant finite-difference workload),
// orthonormalize, diagonalize in the subspace. It runs on the
// Hamiltonian's bands x domain layout: the damped step is one fused
// stencil sweep per state of this band group's slice, while
// orthonormalization, subspace assembly and Rayleigh–Ritz run
// band-parallel through internal/pblas (see bands.go). Eigenvalues are
// dV-invariant, so the solver works with raw dot products.
type EigenSolver struct {
	H       *Hamiltonian
	Tol     float64 // eigenvalue convergence threshold (Hartree)
	MaxIter int
	// Ckpt, when set, snapshots the solver state (this band group's
	// states, previous Ritz values, iteration counter) every
	// Ckpt.Every iterations; see checkpoint.go.
	Ckpt *Checkpointer
}

// NewEigenSolver returns a solver with sensible defaults.
func NewEigenSolver(h *Hamiltonian) *EigenSolver {
	return &EigenSolver{H: h, Tol: 1e-8, MaxIter: 2000}
}

// Solve iterates this band group's slice of the m global states
// (initial guesses) toward the lowest eigenstates and returns all m
// eigenvalues ascending, bit-identical for every bands x domain layout.
// psis must be the slice D.BandRange(m) selects (the whole state set
// when Bands is 1, as on an undecomposed Hamiltonian). The slice
// elements are updated to hold the converged states, but the damped
// step ping-pongs through internal buffers, so individual *grid.Grid
// objects may be replaced: read states through the slice after Solve
// returns, not through element pointers saved beforehand.
func (es *EigenSolver) Solve(m int, psis []*grid.Grid) ([]float64, error) {
	return es.solve(m, psis, nil, 0)
}

// Resume continues a solve from a restored checkpoint (RestoreEigen).
// The restored states stand in for the caller's psis slice; the solver
// skips the initial orthonormalization — the checkpointed states are
// already the post-Rayleigh–Ritz basis, and renormalizing them would
// perturb the bits an undisturbed run produces. The returned slice
// holds the final states.
func (es *EigenSolver) Resume(rs *EigenRestart) ([]float64, []*grid.Grid, error) {
	eig, err := es.solve(rs.States, rs.Psis, rs.Prev, rs.Iteration)
	return eig, rs.Psis, err
}

func (es *EigenSolver) solve(m int, psis []*grid.Grid, resumePrev []float64, start int) ([]float64, error) {
	if m < 1 || (es.H.D == nil && len(psis) == 0) {
		return nil, fmt.Errorf("gpaw: no states to solve")
	}
	h := es.H
	if len(psis) > 0 {
		h = h.bound(psis[0])
	}
	d := h.D
	defer d.Cart.TraceRank().Region("eigen.solve").End()
	if lo, hi := d.BandRange(m); hi-lo != len(psis) {
		return nil, fmt.Errorf("gpaw: band group %d holds %d of %d states, want %d",
			d.Band, len(psis), m, hi-lo)
	}
	prev := make([]float64, m)
	if resumePrev != nil {
		copy(prev, resumePrev)
	} else {
		if err := d.orthonormalize(m, psis); err != nil {
			return nil, err
		}
		for i := range prev {
			prev[i] = math.Inf(1)
		}
	}
	tau := 1.0 / h.SpectralBound()
	outs := make([]*grid.Grid, len(psis))
	for i := range outs {
		outs[i] = grid.NewDims(psis[i].Dims(), psis[i].H)
	}
	lastDelta := math.Inf(1)
	for it := start + 1; it <= es.MaxIter; it++ {
		// Damped power step psi <- psi - tau*H*psi for this group's
		// states, one fused sweep each behind the approach's exchange
		// protocol.
		h.applyStates(outs, psis, -tau, 1)
		for i := range psis {
			psis[i], outs[i] = outs[i], psis[i]
		}
		if err := d.orthonormalize(m, psis); err != nil {
			return nil, err
		}
		eig, err := h.RayleighRitz(m, psis)
		if err != nil {
			return nil, err
		}
		maxd := 0.0
		for i, e := range eig {
			if dd := math.Abs(e - prev[i]); dd > maxd {
				maxd = dd
			}
			prev[i] = e
		}
		lastDelta = maxd
		if es.Ckpt.due(it) {
			if err := es.Ckpt.saveEigen(d, it, m, psis, prev); err != nil {
				return nil, err
			}
		}
		if maxd < es.Tol {
			return eig, nil
		}
	}
	return prev, errEigenNotConverged(es.MaxIter, lastDelta)
}

// Orthonormalize performs Löwdin-style orthonormalization of whole
// (undecomposed) grids via the Cholesky factor of the overlap matrix:
// Ψ ← Ψ L⁻ᵀ, preserving the spanned subspace. This mirrors GPAW's
// orthogonalization step, which is the reason every rank must hold the
// same sub-domain of every grid.
func Orthonormalize(psis []*grid.Grid) error {
	if len(psis) == 0 {
		return nil
	}
	// No halo is read, so the context's halo and boundary are arbitrary.
	return selfDist(psis[0].Dims(), 2, Dirichlet).orthonormalize(len(psis), psis)
}

// rotate replaces psis by psis * C (column convention: new_j = Σ_i
// old_i C[i][j]). Each output state is produced in one fused
// linear-combination sweep over the old states' rows, and the states
// are divided across the pool's workers.
func rotate(p *stencil.Pool, psis []*grid.Grid, c linalg.Matrix) {
	m := len(psis)
	olds := make([]*grid.Grid, m)
	for i := range psis {
		olds[i] = psis[i].Clone()
	}
	p.Exec(m, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			lincombInto(psis[j], c, j, olds)
		}
	})
}

// lincombInto writes dst = Σ_i c[i][col]*srcs[i] row by row,
// accumulating each point in index order (the same addition order as
// the Fill+Axpy chain it replaces, in m+1 memory passes instead of
// 4m+1). Zero coefficients are skipped. The sources are clones of dst
// (identical extents and halo), so dst's row offsets address their
// storage directly.
func lincombInto(dst *grid.Grid, c linalg.Matrix, col int, srcs []*grid.Grid) {
	type term struct {
		data []float64
		c    float64
	}
	terms := make([]term, 0, len(srcs))
	for i, src := range srcs {
		if src.Nx != dst.Nx || src.Ny != dst.Ny || src.Nz != dst.Nz || src.H != dst.H {
			panic("gpaw: lincombInto layout mismatch")
		}
		if c[i][col] != 0 {
			terms = append(terms, term{src.Data(), c[i][col]})
		}
	}
	out := dst.Data()
	for i := 0; i < dst.Nx; i++ {
		for j := 0; j < dst.Ny; j++ {
			drow := dst.Index(i, j, 0)
			clear(out[drow : drow+dst.Nz])
			for _, tm := range terms {
				src := tm.data
				ct := tm.c
				for k := 0; k < dst.Nz; k++ {
					out[drow+k] += ct * src[drow+k]
				}
			}
		}
	}
	grid.NoteTraffic(dst.Points(), len(terms)+1)
}

// guessValue is the deterministic seed field of InitGuess evaluated at
// global index (i, j, k) of a dims-sized grid: mixed low-order modes
// plus a per-state phase. Every rank fills its sub-domain through this
// function at global indices, so initial states are bit-identical for
// every decomposition.
func guessValue(s int, dims [3]int, i, j, k int) float64 {
	x := float64(i+1) / float64(dims[0]+1)
	y := float64(j+1) / float64(dims[1]+1)
	z := float64(k+1) / float64(dims[2]+1)
	return math.Sin(math.Pi*x*float64(1+s%3))*
		math.Sin(math.Pi*y*float64(1+(s/3)%3))*
		math.Sin(math.Pi*z*float64(1+(s/9)%3)) +
		0.01*math.Cos(float64(s)+x+2*y+3*z)
}

// InitGuess fills m whole wave-function grids with deterministic,
// linearly independent smooth fields suitable as eigensolver seeds.
func InitGuess(m int, dims [3]int, halo int) []*grid.Grid {
	psis := make([]*grid.Grid, m)
	for s := 0; s < m; s++ {
		g := grid.New(dims[0], dims[1], dims[2], halo)
		s := s
		g.FillFunc(func(i, j, k int) float64 { return guessValue(s, dims, i, j, k) })
		psis[s] = g
	}
	return psis
}
