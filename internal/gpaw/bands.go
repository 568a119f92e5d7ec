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
//   - subspace matrices are assembled by circulating band blocks through
//     the band communicator in ascending order; each group computes the
//     rows it owns from local sub-domain dot products (detsum-exact),
//     reduces them over its domain communicator in rank order, and the
//     rows are merged across band groups verbatim — every rank ends up
//     holding bit-identical m x m matrices;
//   - the rotation Ψ ← Ψ·C runs as a distributed GEMM over grid-vector
//     blocks: source blocks are broadcast through the band communicator
//     in ascending order, so every output point accumulates its m terms
//     in exactly lincombInto's order.
//
// The m x m algebra between the two is replicated: every rank runs
// internal/linalg on its bit-identical replica and derives the
// bit-identical rotation with no communication (microseconds at tens of
// bands: the ledger's linalg.subspace_us). The Hartree solve is not
// repeated: band group 0 solves and broadcasts v_H (SCF.hartree). All
// results are therefore bit-identical for every bands x domain layout
// (one rank included), every process grid shape and every programming
// approach.

// BandRange returns the half-open global state range [lo, hi) owned by
// this rank's band group when m states are distributed.
func (d *Dist) BandRange(m int) (lo, hi int) {
	s, l := topology.Split(m, d.Bands, d.Band)
	return s, s + l
}

// bandOwnerOf returns the band group owning global state st.
func (d *Dist) bandOwnerOf(m, st int) int {
	for b := 0; b < d.Bands; b++ {
		s, l := topology.Split(m, d.Bands, b)
		if st >= s && st < s+l {
			return b
		}
	}
	panic(fmt.Sprintf("gpaw: state %d outside %d states", st, m))
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

// bcastBandState circulates one state's interior through the band
// communicator: the owner group's member broadcasts src's interior, and
// every other group installs it into buf. Returns the grid holding the
// state (src on the owner, buf elsewhere). With one band group it is
// the identity on src.
func (d *Dist) bcastBandState(owner int, src, buf *grid.Grid, flat []float64) *grid.Grid {
	if d.Bands == 1 {
		return src
	}
	if owner == d.Band {
		src.CopyInterior(flat)
		d.BandComm.Bcast(owner, flat)
		return src
	}
	d.BandComm.Bcast(owner, flat)
	buf.SetInterior(flat)
	return buf
}

// forEachBandState visits the m global states in ascending order,
// handing f each state's local sub-domain field: the owner group's
// slice entry directly, other groups a broadcast copy (which f must
// not retain past the call) landed in the Dist's circulation buffer.
// The ascending circulation order is the determinism contract every
// consumer — subspace assembly, rotation, density build — rests on.
//
//gpaw:hotpath
func (d *Dist) forEachBandState(m int, local []*grid.Grid, f func(gi int, src *grid.Grid)) {
	lo, _ := d.BandRange(m)
	sc := &d.states
	if d.Bands > 1 && sc.buf == nil {
		sc.buf = grid.NewDims(d.local, 0)
		//lint:ignore hotpathalloc grow-once scratch: the first circulation sizes it, every later one reuses it
		sc.flat = make([]float64, sc.buf.Points())
	}
	for gi := 0; gi < m; gi++ {
		owner := d.bandOwnerOf(m, gi)
		var own *grid.Grid
		if owner == d.Band {
			own = local[gi-lo]
		}
		f(gi, d.bcastBandState(owner, own, sc.buf, sc.flat))
	}
}

// stateScratch is the eigen pass's working storage, owned by the Dist
// and grown on first use (never in NewDist: most contexts — the Poisson
// and multigrid ones, every per-call selfDist — run no eigen pass). The
// pass's consumers of a second state set use it strictly one after the
// other on the rank's master goroutine — the filter's ping-pong partner,
// then RayleighRitz's H·psi set and, once the subspace matrices are
// built from it, its rotation targets — so one set serves all.
type stateScratch struct {
	set []*grid.Grid // one local grid per local state

	buf  *grid.Grid // forEachBandState's landing grid (Bands > 1)
	flat []float64  // and its flat broadcast transport
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
	used       []bool
	slots      []int
	in, merged []float64
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
// the full m x m symmetric matrix outs[k][i][j] = <left_i, rights[k]_j>
// (j >= i computed, mirrored) when each band group holds only its slice
// of the sets — all of them in one domain reduction and one band merge,
// so the overlap and Hamiltonian matrices of a subspace step cost the
// collectives of one. Blocks of the right-hand states circulate through
// the band communicator in ascending order; the pair (i, j) is computed
// by the owner of i from local sub-domain dots accumulated into detsum
// accumulators, reduced exactly over the domain communicator in rank
// order, and the finished rows are merged across band groups verbatim.
// Every entry has the same bits for every layout.
//
//gpaw:hotpath
func (d *Dist) bandSymMatrix(m int, outs []linalg.Matrix, left []*grid.Grid, rights ...[]*grid.Grid) {
	sc := &d.sym
	lo, hi := d.BandRange(m)
	if d.Bands == 1 {
		// Domain-only layout: one pool split over the m(m+1)/2 pairs of
		// every matrix keeps every worker busy (every state is local, no
		// circulation needed). Same per-pair arithmetic and reduction order
		// as the circulate path, so the entries are bit-identical either way.
		np := len(rights) * m * (m + 1) / 2
		pairs, accs, ptrs := grow(&sc.pairs, np), grow(&sc.accs, np), grow(&sc.ptrs, np)
		clear(accs)
		n := 0
		for k := range rights {
			for i := 0; i < m; i++ {
				for j := i; j < m; j, n = j+1, n+1 {
					pairs[n], ptrs[n] = [3]int{k, i, j}, &accs[n]
				}
			}
		}
		//lint:ignore hotpathalloc the fork-join closure Pool.Exec takes: one per assembly, not per pair
		d.pool.Exec(np, func(_, plo, phi int) {
			for n := plo; n < phi; n++ {
				l := left[pairs[n][1]]
				l.DotAccRange(rights[pairs[n][0]][pairs[n][2]], 0, l.Nx, &accs[n])
			}
		})
		vals := d.reduceAccs(ptrs)
		for n, pr := range pairs {
			out := outs[pr[0]]
			out[pr[1]][pr[2]], out[pr[2]][pr[1]] = vals[n], vals[n]
		}
		return
	}
	// Slot (k, ii, j) of the owned rows: matrix k, local row ii, column j.
	nown, mm := hi-lo, m*m
	nslot := len(rights) * nown * m
	accs, used := grow(&sc.accs, nslot), grow(&sc.used, nslot)
	clear(accs)
	clear(used)
	for k, right := range rights {
		base := k * nown * m
		//lint:ignore hotpathalloc the visitor forEachBandState takes: one per matrix
		d.forEachBandState(m, right, func(j int, src *grid.Grid) {
			// Pairs (i, j) with i in my range and i <= j.
			count := min(j+1, hi) - lo
			if count <= 0 {
				return
			}
			//lint:ignore hotpathalloc the fork-join closure Pool.Exec takes: one per circulated state
			d.pool.Exec(count, func(_, ilo, ihi int) {
				for ii := ilo; ii < ihi; ii++ {
					left[ii].DotAccRange(src, 0, left[ii].Nx, &accs[base+ii*m+j])
				}
			})
			for ii := 0; ii < count; ii++ {
				used[base+ii*m+j] = true
			}
		})
	}
	// Exact domain reduction of every owned pair, in a fixed order.
	ptrs, slots := grow(&sc.ptrs, nslot), grow(&sc.slots, nslot)
	n := 0
	for s := range accs {
		if used[s] {
			ptrs[n], slots[n] = &accs[s], s
			n++
		}
	}
	vals := d.reduceAccs(ptrs[:n])
	// Merge the finished rows across band groups verbatim and mirror.
	nval := len(rights) * mm
	in, merged := grow(&sc.in, 2*nval), grow(&sc.merged, 2*nval)
	clear(in)
	for v, s := range slots[:n] {
		k, i, j := s/(nown*m), lo+s%(nown*m)/m, s%m
		in[k*mm+i*m+j] = vals[v]
		in[nval+k*mm+i*m+j] = 1
	}
	d.BandComm.AllreduceFunc(in, merged, mpi.MergeMasked)
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
// and Ψ is the band-distributed state set — the distributed GEMM over
// grid-vector blocks. The rotated states are written into the Dist's
// scratch set and swapped into psis (the *grid.Grid objects are
// replaced, as EigenSolver.Solve documents), so no state is copied.
// With one band group every output state is one fused
// linear-combination sweep over the old states' rows, the states
// divided across the pool. Otherwise source states are broadcast
// through the band communicator in ascending global order, so every
// output point accumulates its terms in exactly lincombInto's order
// (zero, then += c_i * src_i for ascending i, skipping exact-zero
// coefficients) and the rotated states are bit-identical for every
// band count.
//
//gpaw:hotpath
func (d *Dist) bandRotate(m int, psis []*grid.Grid, c linalg.Matrix) {
	news := d.scratchStates(len(psis))
	if d.Bands == 1 {
		//lint:ignore hotpathalloc the fork-join closure Pool.Exec takes: one per rotation, not per state
		d.pool.Exec(m, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				lincombInto(news[j], c, j, psis)
			}
		})
		swapStates(psis, news)
		return
	}
	lo, hi := d.BandRange(m)
	for _, g := range news {
		g.Fill(0)
	}
	//lint:ignore hotpathalloc the visitor forEachBandState takes: one per rotation
	d.forEachBandState(m, psis, func(gi int, src *grid.Grid) {
		//lint:ignore hotpathalloc the fork-join closure Pool.Exec takes: one per circulated state
		d.pool.Exec(hi-lo, func(_, jlo, jhi int) {
			for jj := jlo; jj < jhi; jj++ {
				if ct := c[gi][lo+jj]; ct != 0 {
					news[jj].Axpy(ct, src)
				}
			}
		})
	})
	swapStates(psis, news)
}

// RayleighRitz is the subspace step: it replaces the m global states,
// of which psis is this band group's slice and which need be neither
// orthogonal nor normalized, by the orthonormal Ritz vectors of H in
// their span. H is applied to the slice behind the approach's exchange
// protocol; S = <psi_i|psi_j> and <psi_i|H|psi_j> are assembled
// band-parallel in one reduction, bit-identical on every rank; there
// internal/linalg Cholesky-factors S (checksum-verified under ABFT),
// inverts the factor and diagonalizes L⁻¹HL⁻ᵀ to QΛQᵀ; one distributed
// GEMM rotates the states by L⁻ᵀQ. Returns all m Ritz values ascending
// (bit-identical on every rank and layout); an error means linearly
// dependent states, a failed diagonalization or detected corruption.
//
//gpaw:hotpath
func (h *Hamiltonian) RayleighRitz(m int, psis []*grid.Grid) ([]float64, error) {
	if len(psis) > 0 {
		h = h.bound(psis[0])
	}
	d := h.D
	defer d.Cart.TraceRank().Region("bands.rayleighritz").End()
	// H·psi lands in the scratch set: only interiors are written here and
	// read by the subspace assembly, after which the set is free again
	// for bandRotate's targets.
	hp := d.scratchStates(len(psis))
	h.applyStates(hp, psis, nil, 1, 0, 0)
	s, hm := linalg.NewMatrix(m, m), linalg.NewMatrix(m, m)
	//lint:ignore hotpathalloc the two-matrix argument lists: one per subspace step
	d.bandSymMatrix(m, []linalg.Matrix{s, hm}, psis, psis, hp)
	l, err := linalg.Cholesky(s)
	if err != nil {
		//lint:ignore hotpathalloc error path: the solve is over
		return nil, fmt.Errorf("gpaw: overlap not positive definite (linearly dependent states): %w", err)
	}
	if d.ABFT {
		if err := d.checkCholesky(s, l); err != nil {
			return nil, err
		}
	}
	// The upper triangle of the reduced matrix, symmetric up to rounding,
	// is taken as the matrix.
	linv := linalg.InvertLower(l)
	linvT := linalg.Transpose(linv)
	red := linalg.MatMul(linalg.MatMul(linv, hm), linvT)
	for i := range red {
		for j := i + 1; j < m; j++ {
			red[j][i] = red[i][j]
		}
	}
	eig, q, err := linalg.SymEig(red)
	if err != nil {
		//lint:ignore hotpathalloc error path: the solve is over
		return nil, fmt.Errorf("gpaw: subspace diagonalization: %w", err)
	}
	d.bandRotate(m, psis, linalg.MatMul(linvT, q))
	return eig, nil
}
