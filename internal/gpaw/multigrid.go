package gpaw

import (
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// Redistribution tags: the level-transfer traffic of the V-cycle,
// disjoint from the gather tag (dist.go). The same pair serves every
// shrink boundary — all ranks execute their shared transfers in the
// same order, so FIFO matching per (source, tag) pairs the k-th send
// with the k-th receive even across nested levels.
const (
	redistDownTag = distTag + 16 // fine residual -> doubled transfer layout
	redistUpTag   = distTag + 17 // coarse correction -> fine layout
)

// mgLevel is one level of the hierarchy. Every level is distributed:
// levels whose sub-domains would become thinner than the halo run on a
// shrunken process grid (a sub-communicator of the surviving ranks).
type mgLevel struct {
	op   *stencil.Operator
	h    float64
	dims topology.Dims // global extents of this level

	procs  topology.Dims // process grid of this level
	comm   *mpi.Comm     // communicator of the level's active ranks (nil on parked ranks)
	cart   *mpi.Cart
	dec    *grid.Decomp
	eng    *core.Engine
	active bool // whether this rank holds data at this level

	phi, rhs, res *grid.Grid // local scratch (active ranks only)

	// Shrink-transfer machinery, set when this level's process grid
	// differs from the parent's (fewer ranks, or re-split for
	// alignment). The parent's active ranks redistribute the residual
	// into xferDec — the parent extents over THIS level's process grid
	// with splits doubled from dec, so restriction and prolongation stay
	// rank-local — and bring the correction back the same way.
	shrunk   bool
	xferDec  *grid.Decomp
	xfer     *grid.Grid       // local scratch in xferDec layout (active ranks only)
	down, up *grid.RedistPlan // parent layout <-> transfer layout (parent-active ranks)
}

// multigrid is the geometric V-cycle the Hartree solve preconditions its
// conjugate gradients with (multigrid is the method GPAW's production
// Poisson solver uses), on the sub-domains of the Dist that owns it
// (Dist.hierarchy). One cycle from a zero guess is z = M⁻¹r for the
// negated Laplacian: reduction-free, halo-overlapped sweeps only. Each
// level rediscretizes the operator at twice the spacing; full-weighting
// restriction moves residuals down, its adjoint (up to scale)
// piecewise-constant prolongation moves corrections up, damped Jacobi
// (the fused Smooth kernel) smooths mgSmooth times before and
// after, and mgCoarsest relaxations stand in for the coarsest solve —
// equal counts of a self-adjoint smoother, so M⁻¹ is symmetric positive
// definite, as conjugate gradients require. Coarsening halves every
// extent while all stay even and above 4 points; a grid that cannot
// coarsen has the one level, and its cycle is that relaxation. When a
// level's sub-domains would become thinner than the halo
// (grid.NewDecompOrFallback shrinks the process grid) or the fine/coarse
// splits stop aligning for local transfer, the level is redistributed
// onto the surviving ranks' sub-communicator (mpi.Comm.Split +
// grid.RedistPlan) and the V-cycle continues there while the remaining
// ranks park at the blocking return transfer until prolongation. No
// level funnels through rank 0, and all-level arithmetic is
// bit-identical for every process grid.
type multigrid struct {
	D *Dist

	levels []*mgLevel
}

// Sweep counts of one cycle. 1 + 1 smoothing doubled the conjugate-
// gradient iterations of the 24^3 Hartree solve; 60 coarsest sweeps
// bought nothing over 8.
const (
	mgSmooth   = 3
	mgCoarsest = 8 // even, so the coarsest relaxation ends in phi (vcycle)
)

// splitsAligned reports whether every rank's fine split is exactly
// twice its coarse split in every dimension — the condition for
// restriction/prolongation to stay rank-local without a transfer
// layout.
func splitsAligned(fine, coarse, procs topology.Dims) bool {
	for dim := 0; dim < 3; dim++ {
		for r := 0; r < procs[dim]; r++ {
			fs, fl := topology.Split(fine[dim], procs[dim], r)
			cs, cl := topology.Split(coarse[dim], procs[dim], r)
			if fs != 2*cs || fl != 2*cl {
				return false
			}
		}
	}
	return true
}

// firstRanks is the mpi.Comm.Split coloring that keeps ranks 0..k-1 (color
// 0) and drops the rest: the shrunk multigrid levels and the recovery
// layouts both run on a communicator's first ranks.
func firstRanks(k int) func(r int) int {
	return func(r int) int {
		if r < k {
			return 0
		}
		return -1
	}
}

// hierarchy returns the Dist's multigrid for its global grid at spacing
// h, building it on the first call (and again if h changes): level
// grids, engines and sub-communicators are scratch of the solve, not of
// NewDist. The building call sends no message, but every rank of the
// domain communicator makes it, so that their Split counts agree.
func (d *Dist) hierarchy(h float64) (*multigrid, error) {
	if d.mg != nil && d.mg.levels[0].h == h {
		return d.mg, nil
	}
	mg := &multigrid{D: d}
	dims := d.Decomp.Global
	spacing := h
	for {
		// Negated, like the conjugate gradients around the cycle: the
		// levels relax the positive (semi-)definite -∇².
		mg.levels = append(mg.levels, &mgLevel{op: stencil.Laplacian(2, spacing).Scaled(-1), h: spacing, dims: dims})
		if dims[0]%2 != 0 || dims[1]%2 != 0 || dims[2]%2 != 0 ||
			dims[0] <= 4 || dims[1] <= 4 || dims[2] <= 4 {
			break
		}
		dims = topology.Dims{dims[0] / 2, dims[1] / 2, dims[2] / 2}
		spacing *= 2
	}
	halo := d.Decomp.Halo
	periodic := d.BC == Periodic
	for l, lv := range mg.levels {
		if l == 0 {
			lv.procs, lv.dec = d.Decomp.Procs, d.Decomp
			lv.comm, lv.cart = d.Cart.Comm, d.Cart
			lv.active = true
		} else {
			prev := mg.levels[l-1]
			// The level's process grid is a pure function of (dims,
			// parent grid, halo): every rank — parked ones included —
			// derives the same chain without communication.
			dec, used, _, err := grid.NewDecompOrFallback(lv.dims, prev.procs, halo)
			if err != nil {
				return nil, err
			}
			lv.procs = used
			if used == prev.procs && splitsAligned(prev.dims, lv.dims, used) {
				if !prev.active {
					continue
				}
				lv.dec = dec
				lv.comm, lv.cart = prev.comm, prev.cart
				lv.active = true
			} else {
				lv.shrunk = true
				lv.xferDec = dec.Doubled(0)
				if !prev.active {
					continue
				}
				// The parent level's first used.Count() ranks survive
				// onto this level, keeping their rank numbers (Split
				// numbers by old rank), so the coarse Cartesian
				// coordinates are the row-major coordinates of the same
				// ranks.
				sub := prev.comm.Split(firstRanks(used.Count()))
				lv.down = grid.NewRedistPlan(prev.comm.Rank(), prev.dec, lv.xferDec)
				lv.up = grid.NewRedistPlan(prev.comm.Rank(), lv.xferDec, prev.dec)
				if sub == nil {
					continue // this rank parks at the l-1 -> l boundary
				}
				lv.dec = dec
				lv.comm = sub
				lv.cart = sub.CartCreate(used, [3]bool{periodic, periodic, periodic}, true)
				lv.active = true
				lv.xfer = grid.NewDims(lv.xferDec.LocalDims(used.Coord(sub.Rank())), 0)
			}
		}
		eng, err := core.NewEngine(lv.cart, lv.dec, lv.op, periodic,
			core.OptionsFor(d.Approach, 1, 1))
		if err != nil {
			return nil, err
		}
		lv.eng = eng
		c := lv.dec.LocalDims(lv.cart.Coords(lv.cart.Rank()))
		lv.phi = grid.NewDims(c, halo)
		lv.res = grid.NewDims(c, halo)
		if l > 0 { // the top level's right-hand side is the caller's
			lv.rhs = grid.NewDims(c, halo)
		}
	}
	d.mg = mg
	return mg, nil
}

// smooth runs n damped Jacobi sweeps of A x = rhs on one level, each one
// fused pass (y = x + c*(rhs - A x)) whose deep interior overlaps the
// level's halo exchange (the level engines follow the Dist's approach,
// as does the overlap split), ping-ponging between x and y.
// It returns the grid holding the result and the other one. With
// fromZero the iterate is zero whatever x holds: the first sweep is then
// y = c*rhs and needs neither a stencil nor an exchange.
//
//gpaw:hotpath
func (mg *multigrid) smooth(lv *mgLevel, x, y, rhs *grid.Grid, n int, fromZero bool) (*grid.Grid, *grid.Grid) {
	const omega = 0.8
	c := omega / lv.op.Center
	d := mg.D
	defer d.Cart.TraceRank().Region("mg.smooth").End()
	for s := 0; s < n; s++ {
		if s == 0 && fromZero {
			y.CopyInteriorFrom(rhs)
			y.Scale(c)
		} else {
			d.withOverlap(lv.eng, y, x, sweep{k: lv.op.Smooth(rhs, c)})
		}
		x, y = y, x
	}
	return x, y
}

// restrictPlanes full-weights fine into coarse planes [i0, i1) (fine
// dims are exactly twice coarse dims). The 2x2x2 cell average is the
// 3-D full-weighting operator for cell-centred grids.
func restrictPlanes(fine, coarse *grid.Grid, i0, i1 int) {
	d := coarse.Dims()
	fd := fine.Data()
	cd := coarse.Data()
	for i := i0; i < i1; i++ {
		for j := 0; j < d[1]; j++ {
			crow := coarse.Index(i, j, 0)
			f00 := fine.Index(2*i, 2*j, 0)
			f01 := fine.Index(2*i, 2*j+1, 0)
			f10 := fine.Index(2*i+1, 2*j, 0)
			f11 := fine.Index(2*i+1, 2*j+1, 0)
			for k := 0; k < d[2]; k++ {
				k2 := 2 * k
				sum := fd[f00+k2] + fd[f00+k2+1] +
					fd[f01+k2] + fd[f01+k2+1] +
					fd[f10+k2] + fd[f10+k2+1] +
					fd[f11+k2] + fd[f11+k2+1]
				cd[crow+k] = sum / 8
			}
		}
	}
}

// prolongPlanes adds (add) or writes the piecewise-constant
// interpolation of coarse onto fine planes [i0, i1) — the adjoint of
// full weighting up to scale; with the smoothing sweeps around it,
// constant prolongation is sufficient and cheap. Shrunken levels write:
// they materialize the coarse correction in the doubled transfer layout
// before redistributing it, and the eventual phi += correction then
// adds exactly the coarse value the adding form adds — same addend,
// same bits (a zero-fill-then-add would turn a -0 correction into +0).
func prolongPlanes(coarse, fine *grid.Grid, add bool, i0, i1 int) {
	d := fine.Dims()
	fd := fine.Data()
	cd := coarse.Data()
	for i := i0; i < i1; i++ {
		for j := 0; j < d[1]; j++ {
			frow := fine.Index(i, j, 0)
			crow := coarse.Index(i/2, j/2, 0)
			for k := 0; k < d[2]; k++ {
				if add {
					fd[frow+k] += cd[crow+k/2]
				} else {
					fd[frow+k] = cd[crow+k/2]
				}
			}
		}
	}
}

// levelTransfer is a level transfer as a pool Task: full weighting of
// from into to, or with prolong the prolongation of from onto to
// (adding when add holds), split over the x planes of to.
type levelTransfer struct {
	from, to     *grid.Grid
	prolong, add bool
}

func (t *levelTransfer) Share(_, lo, hi int) {
	if t.prolong {
		prolongPlanes(t.from, t.to, t.add, lo, hi)
	} else {
		restrictPlanes(t.from, t.to, lo, hi)
	}
}

// transfer runs the level transfer t across the pool.
//
//gpaw:hotpath
func (d *Dist) transfer(t levelTransfer) {
	d.move = t
	d.pool.Exec(t.to.Nx, &d.move)
	grid.NoteTraffic(t.from.Points()+t.to.Points(), 1)
}

// vcycle sets phi to one V-cycle from a zero guess for A phi = rhs on
// level l (what phi held is ignored). It is entered only by ranks
// active at level l. The iterate ping-pongs between phi and the level's
// res: after the pre-smoothing it is in x with y free for the residual,
// and mgSmooth + mgSmooth more sweeps — like the even mgCoarsest — leave
// it in phi.
//
//gpaw:hotpath
func (mg *multigrid) vcycle(l int, phi, rhs *grid.Grid) {
	d := mg.D
	defer d.Cart.TraceRank().Region("mg.vcycle").End()
	lv := mg.levels[l]
	if l == len(mg.levels)-1 {
		mg.smooth(lv, phi, lv.res, rhs, mgCoarsest, true)
		return
	}
	x, y := mg.smooth(lv, phi, lv.res, rhs, mgSmooth, true)
	d.withOverlap(lv.eng, y, x, sweep{k: lv.op.Residual(rhs)})
	next := mg.levels[l+1]
	if next.shrunk {
		// Level redistribution: move the residual into the doubled
		// transfer layout of the surviving ranks, restrict and recurse
		// on their sub-communicator, and bring the correction back.
		// Ranks outside the shrunken grid send their residual pieces and
		// park on the return transfer's blocking receives until the
		// coarse correction arrives.
		next.down.Run(lv.comm, y, next.xfer, redistDownTag)
		if next.active {
			d.transfer(levelTransfer{from: next.xfer, to: next.rhs})
			mg.vcycle(l+1, next.phi, next.rhs)
			d.transfer(levelTransfer{from: next.phi, to: next.xfer, prolong: true})
		}
		next.up.Run(lv.comm, next.xfer, y, redistUpTag)
		// x += correction: the addend is bit-identical to the coarse
		// value the adding prolongation adds at the same global index.
		x.Axpy(1, y)
	} else {
		d.transfer(levelTransfer{from: y, to: next.rhs})
		mg.vcycle(l+1, next.phi, next.rhs)
		d.transfer(levelTransfer{from: next.phi, to: x, prolong: true, add: true})
	}
	mg.smooth(lv, x, y, rhs, mgSmooth, false)
}

// precondition returns z = M⁻¹r: one V-cycle from a zero guess on
// (-∇²) z = r, the mean removed on periodic grids (r is mean-free there,
// so the projection keeps M⁻¹ symmetric). z is the top level's own
// grid, valid until the next call. Collective over the domain
// communicator, but free of reductions on Dirichlet grids.
func (mg *multigrid) precondition(r *grid.Grid) *grid.Grid {
	z := mg.levels[0].phi
	mg.vcycle(0, z, r)
	if mg.D.BC == Periodic {
		mg.D.removeMean(z)
	}
	return z
}
