package gpaw

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/linalg"
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
	lastDelta := math.Inf(1)
	for it := start + 1; it <= es.MaxIter; it++ {
		// Damped power step psi <- psi - tau*H*psi for this group's
		// states, one fused sweep each behind the approach's exchange
		// protocol, out of place into the Dist's scratch set.
		outs := d.scratchStates(psis)
		h.applyStates(outs, psis, -tau, 1)
		swapStates(psis, outs)
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

// lincombInto writes dst = Σ_i c[i][col]*srcs[i] row by row,
// accumulating each point in index order: 0 + c_0 s_0, then += c_1 s_1,
// ... (the addition order of a Fill(0) + Axpy chain; the leading zero
// makes a -0 product land as +0). Up to four sources are folded per
// point in registers, so a rotation streams its sources once and its
// output ceil(terms/4) times. Zero coefficients are skipped. Every
// product is rounded before it is added (the explicit conversion keeps
// an FMA-capable architecture from fusing the two). The sources share
// dst's extents and halo, so dst's row offsets address their storage
// directly.
func lincombInto(dst *grid.Grid, c linalg.Matrix, col int, srcs []*grid.Grid) {
	var stack [16]lincombTerm // no heap allocation up to 16 states per group
	terms := stack[:0]
	for i, src := range srcs {
		if src.Nx != dst.Nx || src.Ny != dst.Ny || src.Nz != dst.Nz || src.H != dst.H {
			panic("gpaw: lincombInto layout mismatch")
		}
		if c[i][col] != 0 {
			terms = append(terms, lincombTerm{src.Data(), c[i][col]})
		}
	}
	out := dst.Data()
	for i := 0; i < dst.Nx; i++ {
		for j := 0; j < dst.Ny; j++ {
			off := dst.Index(i, j, 0)
			row := out[off : off+dst.Nz]
			clear(row)
			for t := 0; t < len(terms); t += 4 {
				foldRow(row, off, terms[t:min(t+4, len(terms))])
			}
		}
	}
	grid.NoteTraffic(dst.Points(), len(terms)+1)
}

// lincombTerm is one source of a linear combination: a grid's storage
// and its coefficient.
type lincombTerm struct {
	data []float64
	c    float64
}

// foldRow adds the one to four terms ts, in order, to every point of
// row, which sits at offset off of each term's storage.
func foldRow(row []float64, off int, ts []lincombTerm) {
	n := len(row)
	c0, s0 := ts[0].c, ts[0].data[off:off+n]
	switch len(ts) {
	case 1:
		for k, v := range row {
			row[k] = v + float64(c0*s0[k])
		}
	case 2:
		c1, s1 := ts[1].c, ts[1].data[off:off+n]
		for k, v := range row {
			v += float64(c0 * s0[k])
			row[k] = v + float64(c1*s1[k])
		}
	case 3:
		c1, s1 := ts[1].c, ts[1].data[off:off+n]
		c2, s2 := ts[2].c, ts[2].data[off:off+n]
		for k, v := range row {
			v += float64(c0 * s0[k])
			v += float64(c1 * s1[k])
			row[k] = v + float64(c2*s2[k])
		}
	case 4:
		c1, s1 := ts[1].c, ts[1].data[off:off+n]
		c2, s2 := ts[2].c, ts[2].data[off:off+n]
		c3, s3 := ts[3].c, ts[3].data[off:off+n]
		for k, v := range row {
			v += float64(c0 * s0[k])
			v += float64(c1 * s1[k])
			v += float64(c2 * s2[k])
			row[k] = v + float64(c3*s3[k])
		}
	}
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
