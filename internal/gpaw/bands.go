package gpaw

import (
	"fmt"

	"repro/internal/detsum"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// Band parallelization: the second axis of the bands x domain 2D layout.
//
// Distributing the real-space grids over a Cartesian process grid alone
// leaves every wave-function on every rank. GPAW's band parallelization
// divides the m wave-functions into contiguous slices across `Bands`
// rank groups; each group runs its own domain decomposition (and
// halo-exchange engine) over the same global grid, and the band axis
// distributes the grid-sized work of the subspace step:
//
//   - gatherBands gives every group all m states: each group broadcasts
//     its whole slice through the band communicator once, in ascending
//     group order, so a subspace step moves one message per group, not
//     one per state;
//   - each group owns the columns of its slice: it computes the pairs
//     (i <= j) of the subspace matrices for its columns j from local
//     sub-domain dot products of the gathered states with its own
//     (detsum-exact), reduces them over its domain communicator in rank
//     order, and the columns are merged across band groups verbatim —
//     every rank ends up holding bit-identical m x m matrices;
//   - the rotation Ψ ← Ψ·C writes each owned column as one linear
//     combination of the gathered states, accumulating every output
//     point's m terms in lincombInto's order.
//
// The m x m algebra between the two is replicated: every rank runs
// internal/linalg on its bit-identical replica and derives the
// bit-identical rotation with no communication (microseconds at tens of
// bands: the ledger's linalg.subspace_us). The Hartree solve is not
// repeated: band group 0 solves and broadcasts v_H (SCF.hartree). One
// band group runs the same code with the gather the identity, so all
// results are bit-identical for every bands x domain layout (one rank
// included), every process grid shape and every programming approach.

// BandRange returns the half-open global state range [lo, hi) owned by
// this rank's band group when m states are distributed.
func (d *Dist) BandRange(m int) (lo, hi int) {
	s, l := topology.Split(m, d.Bands, d.Band)
	return s, s + l
}

// InitGuessBand fills this band group's slice of the m global seed
// states at this rank's sub-domain, through the deterministic
// global-index field of fillGuess — so solver runs start from
// bit-identical states for every layout.
func (d *Dist) InitGuessBand(m int, dims [3]int) []*grid.Grid {
	lo, hi := d.BandRange(m)
	psis := make([]*grid.Grid, hi-lo)
	for st := lo; st < hi; st++ {
		g := d.NewLocalGrid()
		fillGuess(g, st, dims, d.off)
		psis[st-lo] = g
	}
	return psis
}

// gatherBands returns the m global states in ascending order, of
// which local is this band group's slice. Each band group broadcasts
// its whole slice through the band communicator once, in ascending
// group order (an empty slice sends nothing); the owned entries are
// local's grids themselves, the others halo-free grids the Dist
// allocates once and reuses, valid until the next gather. With one band
// group it returns local.
//
//gpaw:hotpath
func (d *Dist) gatherBands(m int, local []*grid.Grid) []*grid.Grid {
	if d.Bands == 1 {
		return local
	}
	sc := &d.states
	all, got := grow(&sc.all, m), grow(&sc.got, m)
	pts := d.local.Count()
	for b := 0; b < d.Bands; b++ {
		lo, n := topology.Split(m, d.Bands, b)
		if n == 0 {
			continue
		}
		flat := grow(&sc.flat, n*pts)
		if b == d.Band {
			for i, g := range local {
				g.CopyInterior(flat[i*pts:])
				all[lo+i] = g
			}
			d.BandComm.Bcast(b, flat)
			continue
		}
		d.BandComm.Bcast(b, flat)
		for i := 0; i < n; i++ {
			g := got[lo+i]
			if g == nil {
				//lint:ignore hotpathalloc grow-once scratch: the first gather allocates it, every later one reuses it
				g = grid.NewDims(d.local, 0)
				got[lo+i] = g
			}
			g.SetInterior(flat[i*pts : (i+1)*pts])
			all[lo+i] = g
		}
	}
	return all
}

// stateScratch is the eigen pass's working storage, owned by the Dist
// and grown on first use (never in NewDist: most contexts — the Poisson
// and multigrid ones — run no eigen pass). The
// pass's consumers of a second state set use it strictly one after the
// other on the rank's master goroutine — the filter's ping-pong partner,
// then RayleighRitz's H·psi set and, once the subspace matrices are
// built from it, its rotation targets — so one set serves all.
type stateScratch struct {
	set []*grid.Grid // one local grid per local state

	// gatherBands' storage (Bands > 1): the gathered set, the halo-free
	// grids other groups' states land in (by global index, allocated at
	// the first landing) and the flat broadcast transport.
	all, got []*grid.Grid
	flat     []float64
}

// scratchStates returns n local scratch grids, allocating only the ones
// the set does not hold yet (the first pass, or a larger state count).
// Their contents are unspecified; callers write interiors only, so the
// halos of a grid born here stay zero until an exchange fills them.
// Callers that produce new states in the set install them with
// swapStates, which leaves the replaced states' grids in the set.
//
//gpaw:hotpath
func (d *Dist) scratchStates(n int) []*grid.Grid {
	set := grow(&d.states.set, n)
	for i, g := range set {
		if g == nil {
			set[i] = d.NewLocalGrid()
		}
	}
	return set
}

// swapStates exchanges the grids of psis and set element-wise.
func swapStates(psis, set []*grid.Grid) {
	for i := range psis {
		psis[i], set[i] = set[i], psis[i]
	}
}

// symScratch is bandSymMatrix's working storage, owned by the Dist and
// sized on first use: the eigensolver assembles its subspace matrices
// once per pass, always on the rank's master goroutine.
type symScratch struct {
	pairs      [][3]int
	accs       []detsum.Acc
	ptrs       []*detsum.Acc
	lo         int
	all        []*grid.Grid
	rights     [][]*grid.Grid
	in, merged []float64
}

// Share computes the pair dots [lo, hi) of the assembly in progress:
// pair (k, i, j) is <all_i, rights[k]_j>, j an owned column from sc.lo.
func (sc *symScratch) Share(_, lo, hi int) {
	for n := lo; n < hi; n++ {
		k, i, j := sc.pairs[n][0], sc.pairs[n][1], sc.pairs[n][2]
		sc.all[i].DotAcc(sc.rights[k][j-sc.lo], &sc.accs[n])
	}
}

// grow returns *s resized to n elements, reallocating only when its
// capacity is short — the first call, or a larger subspace. The
// contents are unspecified.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// bandSymMatrix assembles, for every right-hand state set rights[k],
// the full m x m symmetric matrix outs[k][i][j] = <all_i, rights[k]_j>
// (j >= i computed, mirrored), where all is the gathered left-hand set
// (gatherBands) and each band group holds only its slice of the right-
// hand sets — all of them in one domain reduction and one band merge,
// so the overlap and Hamiltonian matrices of a subspace step cost the
// collectives of one. Each group computes the pairs of the columns j it
// owns, one pool split over every pair of every matrix, from local
// sub-domain dots accumulated into detsum accumulators; they are
// reduced exactly over the domain communicator and the finished columns
// are merged across band groups verbatim. Every entry has the same bits
// for every layout.
//
//gpaw:hotpath
func (d *Dist) bandSymMatrix(m int, outs []linalg.Matrix, all []*grid.Grid, rights ...[]*grid.Grid) {
	sc := &d.sym
	lo, hi := d.BandRange(m)
	// Pair (k, i, j): matrix k, row i <= owned column j.
	np := len(rights) * (hi*(hi+1) - lo*(lo+1)) / 2
	pairs, accs, ptrs := grow(&sc.pairs, np), grow(&sc.accs, np), grow(&sc.ptrs, np)
	clear(accs)
	n := 0
	for k := range rights {
		for j := lo; j < hi; j++ {
			for i := 0; i <= j; i, n = i+1, n+1 {
				pairs[n], ptrs[n] = [3]int{k, i, j}, &accs[n]
			}
		}
	}
	// The task keeps a copy of the right-hand sets: the argument list
	// itself stays the caller's.
	copy(grow(&sc.rights, len(rights)), rights)
	sc.lo, sc.all = lo, all
	d.pool.Exec(np, sc)
	vals := d.reduceAccs(ptrs)
	// Merge the finished columns across band groups verbatim and mirror.
	mm, nval := m*m, len(rights)*m*m
	in := grow(&sc.in, 2*nval)
	clear(in)
	for n, pr := range pairs {
		s := pr[0]*mm + pr[1]*m + pr[2]
		in[s], in[nval+s] = vals[n], 1
	}
	merged := in
	if d.Bands > 1 {
		merged = grow(&sc.merged, 2*nval)
		d.BandComm.AllreduceFunc(in, merged, mpi.MergeMasked)
	}
	for k, out := range outs {
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				out[i][j], out[j][i] = merged[k*mm+i*m+j], merged[k*mm+i*m+j]
			}
		}
	}
}

// bandRotate replaces the band slice psis (global states [lo, hi)) by
// the columns [lo, hi) of Ψ·C, where C is the replicated m x m rotation
// and all is Ψ gathered (gatherBands) — the distributed GEMM over
// grid-vector blocks. Each owned column is one fused linear-combination
// sweep over the gathered states' rows (lincombInto: zero, then
// += c_i * src_i for ascending i, skipping exact-zero coefficients), the
// columns divided across the pool, so the rotated states are
// bit-identical for every band count. They are written into the Dist's
// scratch set and swapped into psis (the *grid.Grid objects are
// replaced, as EigenSolver.Solve documents), so no state is copied.
//
//gpaw:hotpath
func (d *Dist) bandRotate(m int, psis, all []*grid.Grid, c linalg.Matrix) {
	lo, _ := d.BandRange(m)
	news := d.scratchStates(len(psis))
	d.rot = rotation{lo: lo, all: all, out: news, c: c}
	d.pool.Exec(len(psis), &d.rot)
	swapStates(psis, news)
}

// rotation is bandRotate's pool Task: column jj of the rotated band
// slice, out[jj], is the combination of all with column lo+jj of c.
type rotation struct {
	lo       int
	all, out []*grid.Grid
	c        linalg.Matrix
}

func (r *rotation) Share(_, lo, hi int) {
	for jj := lo; jj < hi; jj++ {
		lincombInto(r.out[jj], r.c, r.lo+jj, r.all)
	}
}

// subspaceScratch is RayleighRitz's m x m storage, owned by the Dist
// and sized on first use for the subspace order (again when it
// changes): the overlap and Hamiltonian matrices, the factor, its
// inverse and that inverse's transpose, the reduced matrix, its
// eigenvectors, a product's intermediate, linalg's workspace, and two
// Ritz-value slices the steps alternate between.
type subspaceScratch struct {
	m                          int
	sh                         [2]linalg.Matrix // S, H
	l, linv, linvT, red, q, ab linalg.Matrix
	ws                         *linalg.Work
	eig                        [2][]float64
	last                       int // eig[last] holds the latest step's values
}

// subspace returns the Dist's subspace storage for order m.
func (d *Dist) subspace(m int) *subspaceScratch {
	if d.sub == nil || d.sub.m != m {
		mat := func() linalg.Matrix { return linalg.NewMatrix(m, m) }
		d.sub = &subspaceScratch{m: m, sh: [2]linalg.Matrix{mat(), mat()},
			l: mat(), linv: mat(), linvT: mat(), red: mat(), q: mat(), ab: mat(),
			ws: linalg.NewWork(m), eig: [2][]float64{make([]float64, m), make([]float64, m)}}
	}
	return d.sub
}

// RayleighRitz is the subspace step: it replaces the m global states,
// of which psis is this band group's slice and which need be neither
// orthogonal nor normalized, by the orthonormal Ritz vectors of H in
// their span. H is applied to the slice behind the approach's exchange
// protocol; S = <psi_i|psi_j> and <psi_i|H|psi_j> are assembled
// band-parallel in one reduction, bit-identical on every rank; there
// internal/linalg Cholesky-factors S (checksum-verified under ABFT),
// inverts the factor and diagonalizes L⁻¹HL⁻ᵀ to QΛQᵀ; one distributed
// GEMM rotates the states by L⁻ᵀQ. All of the m x m algebra runs in
// the Dist's subspace storage. It returns all m Ritz values ascending
// (bit-identical on every rank and layout), in that storage too: they
// stay valid through the next subspace step on the Dist and are
// overwritten by the one after it, so a caller holding the previous
// step's values can compare the two. An error means linearly dependent
// states, a failed diagonalization or detected corruption.
//
//gpaw:hotpath
func (h *Hamiltonian) RayleighRitz(m int, psis []*grid.Grid) ([]float64, error) {
	d := h.D
	defer d.Cart.TraceRank().Region("bands.rayleighritz").End()
	// H·psi lands in the scratch set: only interiors are written here and
	// read by the subspace assembly, after which the set is free again
	// for bandRotate's targets. Only psi is gathered, once for both the
	// assembly and the rotation; H·psi never leaves its band group.
	hp := d.scratchStates(len(psis))
	h.applyStates(hp, psis, nil, 1, 0, 0)
	all := d.gatherBands(m, psis)
	sc := d.subspace(m)
	s, hm := sc.sh[0], sc.sh[1]
	d.bandSymMatrix(m, sc.sh[:], all, psis, hp)
	if testHookOverlap != nil {
		testHookOverlap(d, s)
	}
	err := linalg.CholeskyInto(sc.l, s)
	if d.ABFT {
		l := sc.l
		if err != nil {
			l = nil
		}
		if err := d.checkCholesky(s, l); err != nil {
			return nil, err
		}
	}
	if err != nil {
		//lint:ignore hotpathalloc error path: the solve is over
		return nil, fmt.Errorf("gpaw: overlap not positive definite (linearly dependent states): %w", err)
	}
	// The upper triangle of the reduced matrix, symmetric up to rounding,
	// is taken as the matrix.
	linalg.InvertLowerInto(sc.linv, sc.l, sc.ws)
	linalg.TransposeInto(sc.linvT, sc.linv)
	red := linalg.MatMulInto(sc.red, linalg.MatMulInto(sc.ab, sc.linv, hm), sc.linvT)
	for i := range red {
		for j := i + 1; j < m; j++ {
			red[j][i] = red[i][j]
		}
	}
	sc.last ^= 1
	eig := sc.eig[sc.last]
	if err := linalg.SymEigInto(eig, sc.q, red, sc.ws); err != nil {
		//lint:ignore hotpathalloc error path: the solve is over
		return nil, fmt.Errorf("gpaw: subspace diagonalization: %w", err)
	}
	d.bandRotate(m, psis, all, linalg.MatMulInto(sc.ab, sc.linvT, sc.q))
	return eig, nil
}
