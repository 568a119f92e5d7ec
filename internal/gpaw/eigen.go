package gpaw

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/linalg"
)

// EigenSolver finds the lowest eigenstates of a Hamiltonian by
// Chebyshev-filtered subspace iteration (Zhou–Saad CheFSI). One pass is
// a degree-filterDegree Chebyshev polynomial of H applied to every
// state — that many back-to-back fused H·psi sweeps (the paper's
// dominant finite-difference workload) behind the approach's halo
// exchange, no reduction between them — then one subspace step
// (RayleighRitz, bands.go). It runs on the Hamiltonian's bands x domain
// layout. Eigenvalues are dV-invariant, so raw dot products serve.
//
// The filter damps the interval from the block's top Ritz value to
// SpectralBound(), so the top state sits on the interval's edge and
// does not separate: it is the guard that keeps the states below it
// converging. Callers ask for guardStates more states than they want.
type EigenSolver struct {
	H       *Hamiltonian
	Tol     float64 // eigenvalue convergence threshold (Hartree)
	MaxIter int     // filter passes
}

const (
	// filterDegree is the filter's polynomial degree: the H·psi sweeps
	// per state between two subspace steps. 6 to 12 cost the same on the
	// benchmark system; 8 lands its SCF energies well inside the golden
	// window (ROADMAP item 1).
	filterDegree = 8
	// guardStates is the number of states at the top of a block that only
	// bound the filter. Without one the highest wanted state stalls; a
	// second buys nothing.
	guardStates = 1
)

// NewEigenSolver returns a solver with sensible defaults.
func NewEigenSolver(h *Hamiltonian) *EigenSolver {
	return &EigenSolver{H: h, Tol: 1e-8, MaxIter: 200}
}

// Solve iterates this band group's slice of the m global states
// (initial guesses) toward the lowest eigenstates, pass by pass until
// the lowest max(1, m-guardStates) Ritz values move less than Tol, and
// returns all m Ritz values ascending, bit-identical for every bands x
// domain layout. The top guardStates of them are the guard's and not
// converged; a block of one state has no guard and converges slowly.
// psis must be the slice D.BandRange(m) selects (the whole state set
// when Bands is 1). The slice elements are updated to hold the final
// states, but the passes ping-pong through internal buffers, so
// individual *grid.Grid objects may be replaced: read states through
// the slice after Solve returns, not through element pointers saved
// beforehand.
func (es *EigenSolver) Solve(m int, psis []*grid.Grid) ([]float64, error) {
	if m < 1 {
		return nil, fmt.Errorf("gpaw: no states to solve")
	}
	h := es.H
	if lo, hi := h.D.BandRange(m); hi-lo != len(psis) {
		return nil, fmt.Errorf("gpaw: band group %d holds %d of %d states, want %d",
			h.D.Band, len(psis), m, hi-lo)
	}
	var eig []float64
	lastDelta := math.Inf(1)
	for it := 1; it <= es.MaxIter; it++ {
		prev := eig
		var err error
		if eig, err = h.filterPass(m, psis, prev); err != nil {
			return nil, err
		}
		if prev != nil {
			lastDelta = 0
			for i := range eig[:max(1, m-guardStates)] {
				lastDelta = max(lastDelta, math.Abs(eig[i]-prev[i]))
			}
		}
		if lastDelta < es.Tol {
			return slices.Clone(eig), nil
		}
	}
	return slices.Clone(eig), errEigenNotConverged(es.MaxIter, lastDelta)
}

// filterPass is one pass on h's context: filter the m states (psis is
// this band group's slice) with the interval and normalisation point
// the previous pass's Ritz values eig give, then one subspace step; it
// returns the new Ritz values, in the Dist's storage beside eig's
// (RayleighRitz). A nil eig means raw guesses: a subspace
// step on them as they are supplies the first Ritz values.
//
// The filter replaces every psi by p(H) psi, p the Chebyshev polynomial
// that is equi-small on [eig[m-1], SpectralBound()] and 1 at eig[0]
// (Zhou & Saad's scaled three-term recurrence, whose iterates stay O(1)
// however far below the interval eig[0] lies): the lower a component
// lies below the interval, the more it gains on those inside. Each
// recurrence step is one applyStates call that overwrites the
// step-before-last, so the states and the Dist's scratch set are all
// the storage it needs.
func (h *Hamiltonian) filterPass(m int, psis []*grid.Grid, eig []float64) ([]float64, error) {
	defer h.D.Cart.TraceRank().Region("eigen.solve").End()
	if eig == nil {
		var err error
		if eig, err = h.RayleighRitz(m, psis); err != nil {
			return nil, err
		}
	}
	lo, hi := eig[m-1], h.SpectralBound()
	e, c := (hi-lo)/2, float64((hi+lo)/2) // the halving is a product by 0.5: keep it out of eig[0] - c
	sigma1 := e / (eig[0] - c)
	sigma := sigma1
	x, y := psis, h.D.scratchStates(len(psis))
	h.applyStates(y, x, nil, sigma1/e, -c*sigma1/e, 0)
	for k := 2; k <= filterDegree; k++ {
		next := 1 / (2/sigma1 - sigma)
		h.applyStates(x, y, x, 2*next/e, -2*c*next/e, -sigma*next)
		x, y, sigma = y, x, next
	}
	if filterDegree%2 == 1 { // the last step wrote the scratch set
		swapStates(psis, y)
	}
	return h.RayleighRitz(m, psis)
}

// lincombInto writes dst = Σ_i c[i][col]*srcs[i] row by row,
// accumulating each point in index order: 0 + c_0 s_0, then += c_1 s_1,
// ... (the addition order of a Fill(0) + Axpy chain; the leading zero
// makes a -0 product land as +0). Up to four sources are folded per
// point in registers, so a rotation streams its sources once and its
// output ceil(terms/4) times. Zero coefficients are skipped. Every
// product is rounded before it is added (the explicit conversion keeps
// an FMA-capable architecture from fusing the two). The sources share
// dst's extents; each may have its own halo, so each term addresses its
// rows through its own offsets.
func lincombInto(dst *grid.Grid, c linalg.Matrix, col int, srcs []*grid.Grid) {
	var stack [16]lincombTerm // no heap allocation up to 16 states
	terms := stack[:0]
	for i, src := range srcs {
		if src.Nx != dst.Nx || src.Ny != dst.Ny || src.Nz != dst.Nz {
			panic("gpaw: lincombInto layout mismatch")
		}
		if c[i][col] != 0 {
			terms = append(terms, lincombTerm{src, c[i][col]})
		}
	}
	out := dst.Data()
	for i := 0; i < dst.Nx; i++ {
		for j := 0; j < dst.Ny; j++ {
			off := dst.Index(i, j, 0)
			row := out[off : off+dst.Nz]
			clear(row)
			for t := 0; t < len(terms); t += 4 {
				foldRow(row, i, j, terms[t:min(t+4, len(terms))])
			}
		}
	}
	grid.NoteTraffic(dst.Points(), len(terms)+1)
}

// lincombTerm is one source of a linear combination: a grid and its
// coefficient.
type lincombTerm struct {
	src *grid.Grid
	c   float64
}

// row returns the term's n values of interior row (i, j).
func (t lincombTerm) row(i, j, n int) []float64 {
	off := t.src.Index(i, j, 0)
	return t.src.Data()[off : off+n]
}

// foldRow adds the one to four terms ts, in order, to every point of
// row, interior row (i, j) of the destination.
func foldRow(row []float64, i, j int, ts []lincombTerm) {
	n := len(row)
	c0, s0 := ts[0].c, ts[0].row(i, j, n)
	switch len(ts) {
	case 1:
		for k, v := range row {
			row[k] = v + float64(c0*s0[k])
		}
	case 2:
		c1, s1 := ts[1].c, ts[1].row(i, j, n)
		for k, v := range row {
			v += float64(c0 * s0[k])
			row[k] = v + float64(c1*s1[k])
		}
	case 3:
		c1, s1 := ts[1].c, ts[1].row(i, j, n)
		c2, s2 := ts[2].c, ts[2].row(i, j, n)
		for k, v := range row {
			v += float64(c0 * s0[k])
			v += float64(c1 * s1[k])
			row[k] = v + float64(c2*s2[k])
		}
	case 4:
		c1, s1 := ts[1].c, ts[1].row(i, j, n)
		c2, s2 := ts[2].c, ts[2].row(i, j, n)
		c3, s3 := ts[3].c, ts[3].row(i, j, n)
		for k, v := range row {
			v += float64(c0 * s0[k])
			v += float64(c1 * s1[k])
			v += float64(c2 * s2[k])
			row[k] = v + float64(c3*s3[k])
		}
	}
}

// fillGuess fills g, whose interior starts at global index off of a
// dims-sized grid, with seed state s: mixed low-order modes plus a
// per-state phase,
//
//	sin(π·x·(1+s%3))·sin(π·y·(1+s/3%3))·sin(π·z·(1+s/9%3)) + 0.01·cos(s+x+2y+3z)
//
// at x = (i+1)/(dims[0]+1) and likewise y and z. Each sine depends on
// one axis, so it is tabulated once per axis; the product and the
// cosine are formed per point in that order. A point's value depends
// only on its global index, so initial states are bit-identical for
// every decomposition.
func fillGuess(g *grid.Grid, s int, dims [3]int, off [3]int) {
	coord := func(a, i int) float64 { return float64(off[a]+i+1) / float64(dims[a]+1) }
	n := [3]int{g.Nx, g.Ny, g.Nz}
	mode := [3]int{1 + s%3, 1 + (s/3)%3, 1 + (s/9)%3}
	// The tables sit on the stack for local grids of up to 192 points
	// along the three axes together.
	var buf [192]float64
	table := buf[:]
	if k := n[0] + n[1] + n[2]; k > len(buf) {
		table = make([]float64, k)
	}
	var sine [3][]float64
	for a := range 3 {
		sine[a], table = table[:n[a]], table[n[a]:]
		for i := range sine[a] {
			sine[a][i] = math.Sin(math.Pi * coord(a, i) * float64(mode[a]))
		}
	}
	g.FillFunc(func(i, j, k int) float64 {
		x, y, z := coord(0, i), coord(1, j), coord(2, k)
		return float64(sine[0][i]*sine[1][j]*sine[2][k]) +
			float64(0.01*math.Cos(float64(s)+x+float64(2*y)+float64(3*z)))
	})
}
