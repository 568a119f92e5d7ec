package gpaw

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/detsum"
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

// Multigrid is a geometric V-cycle Poisson solver — the method GPAW's
// production Poisson solver uses — on the sub-domains of a Dist. No SCF
// path, example or benchmark workload calls it yet: it (with
// ApplySmooth, grid.Doubled / NewDecompOrFallback / RedistPlan) is kept
// because ROADMAP item 3 makes it the Hartree solver, and the
// differential and golden tests hold its bits until then. Each
// level rediscretizes the Laplacian at twice the spacing;
// full-weighting restriction moves residuals down, piecewise-constant
// prolongation moves corrections up, and damped Jacobi smooths at every
// level, ping-ponging between two buffers with the fused ApplySmooth
// kernel (one sweep per relaxation instead of four). Coarsening halves
// every extent; when a level's sub-domains would become thinner than
// the halo (grid.NewDecompOrFallback shrinks the process grid) or the
// fine/coarse splits stop aligning for local transfer, the level is
// redistributed onto the surviving ranks' sub-communicator
// (mpi.Comm.Split + grid.RedistPlan) and the V-cycle continues there
// while the remaining ranks park at the blocking return transfer until
// prolongation. No level ever funnels through rank 0, and all-level
// arithmetic is bit-identical for every process grid.
type Multigrid struct {
	D          *Dist
	Tol        float64
	MaxCycles  int
	PreSmooth  int
	PostSmooth int

	levels     []*mgLevel
	shrunkFrom int // first level on a smaller/re-split process grid; len(levels) if none
}

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

// NewMultigrid builds the hierarchy for an undecomposed grid of the
// given extents and spacing: phi and rhs are whole grids.
func NewMultigrid(dims topology.Dims, h float64, bc Boundary) (*Multigrid, error) {
	return NewDistMultigrid(selfDist(dims, 2, bc), h)
}

// NewDistMultigrid builds the hierarchy for the Dist's global grid at
// spacing h. Every dimension is halved while all extents stay even and
// above 4 points. Every rank of the Dist's domain communicator must
// call it (the level sub-communicators are built collectively).
func NewDistMultigrid(d *Dist, h float64) (*Multigrid, error) {
	mg := &Multigrid{D: d, Tol: 1e-8, MaxCycles: 60, PreSmooth: 3, PostSmooth: 3}
	dims := d.Decomp.Global
	spacing := h
	for {
		mg.levels = append(mg.levels, &mgLevel{op: stencil.Laplacian(2, spacing), h: spacing, dims: dims})
		if dims[0]%2 != 0 || dims[1]%2 != 0 || dims[2]%2 != 0 ||
			dims[0] <= 4 || dims[1] <= 4 || dims[2] <= 4 {
			break
		}
		dims = topology.Dims{dims[0] / 2, dims[1] / 2, dims[2] / 2}
		spacing *= 2
	}
	if len(mg.levels) < 2 {
		return nil, fmt.Errorf("gpaw: grid %v too small or odd for multigrid", d.Decomp.Global)
	}
	halo := d.Decomp.Halo
	periodic := d.BC == Periodic
	mg.shrunkFrom = len(mg.levels)
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
				if l < mg.shrunkFrom {
					mg.shrunkFrom = l
				}
				lv.xferDec = dec.Doubled(0)
				if !prev.active {
					continue
				}
				// Collective over the parent level's communicator: its
				// first used.Count() ranks survive onto this level,
				// keeping their rank numbers (Split ordered by old
				// rank), so the coarse Cartesian coordinates are the
				// row-major coordinates of the same ranks.
				color := -1
				if prev.comm.Rank() < used.Count() {
					color = 0
				}
				sub := prev.comm.Split(color, prev.comm.Rank())
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
			core.Options{Exchange: core.ExchangeAsync, BatchSize: 1, Threads: 1})
		if err != nil {
			return nil, err
		}
		lv.eng = eng
		c := lv.dec.LocalDims(lv.cart.Coords(lv.cart.Rank()))
		lv.phi = grid.NewDims(c, halo)
		lv.rhs = grid.NewDims(c, halo)
		lv.res = grid.NewDims(c, halo)
	}
	return mg, nil
}

// Levels returns the depth of the hierarchy.
func (mg *Multigrid) Levels() int { return len(mg.levels) }

// ShrunkFrom returns the first level index that runs on a process grid
// different from the solver's — redistributed onto fewer ranks (or
// re-split for transfer alignment) with the remaining ranks parked —
// or Levels() when every level keeps the full process grid.
func (mg *Multigrid) ShrunkFrom() int { return mg.shrunkFrom }

// smooth runs n damped Jacobi sweeps of A phi = rhs on one level. Each
// sweep is one fused pass (dst = phi + c*(rhs - A phi)) ping-ponging
// between phi and the level's residual scratch; an odd sweep count ends
// with a copy back into phi. Each sweep's deep interior overlaps the
// level's halo exchange (the level engines always post asynchronously;
// the overlap split follows the context).
func (mg *Multigrid) smooth(lv *mgLevel, phi, rhs *grid.Grid, n int) {
	const omega = 0.8
	c := omega / lv.op.Center
	d := mg.D
	defer d.Cart.TraceRank().Region("mg.smooth").End()
	src, dst := phi, lv.res
	for s := 0; s < n; s++ {
		// The callback runs inside withOverlap, before the swap, so it
		// sees this sweep's src/dst.
		d.withOverlap(lv.eng, src, func(rg stencil.Region) {
			lv.op.Over(rg).ApplySmooth(d.pool, dst, src, rhs, c)
		})
		src, dst = dst, src
	}
	if src != phi {
		mg.D.pool.Copy(phi, src)
	}
}

// residualInto computes res = rhs - A phi on one level in one fused
// sweep and accumulates |res|^2 locally into acc (callers reduce when
// they need the global norm; the V-cycle discards it).
func (mg *Multigrid) residualInto(lv *mgLevel, res, phi, rhs *grid.Grid, acc *detsum.Acc) {
	d := mg.D
	d.withOverlap(lv.eng, phi, func(rg stencil.Region) {
		lv.op.Over(rg).ApplyResidualAcc(d.pool, res, rhs, phi, acc)
	})
}

// restrictFull full-weights fine into coarse (fine dims are exactly
// twice coarse dims). The 2x2x2 cell average is the 3-D full-weighting
// operator for cell-centred grids; the sweep is split over coarse x
// planes.
func restrictFull(p *stencil.Pool, fine, coarse *grid.Grid) {
	d := coarse.Dims()
	fd := fine.Data()
	cd := coarse.Data()
	p.Exec(d[0], func(_, i0, i1 int) {
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
	})
	grid.NoteTraffic(fine.Points()+coarse.Points(), 1)
}

// prolongInto adds the piecewise-constant interpolation of coarse onto
// fine (the adjoint of full weighting up to scale); with the smoothing
// sweeps around it, constant prolongation is sufficient and cheap. The
// sweep is split over fine x planes.
func prolongInto(p *stencil.Pool, coarse, fine *grid.Grid) {
	d := fine.Dims()
	fd := fine.Data()
	cd := coarse.Data()
	p.Exec(d[0], func(_, i0, i1 int) {
		for i := i0; i < i1; i++ {
			for j := 0; j < d[1]; j++ {
				frow := fine.Index(i, j, 0)
				crow := coarse.Index(i/2, j/2, 0)
				for k := 0; k < d[2]; k++ {
					fd[frow+k] += cd[crow+k/2]
				}
			}
		}
	})
	grid.NoteTraffic(2*fine.Points()+coarse.Points(), 1)
}

// prolongSet writes (rather than adds) the piecewise-constant
// interpolation of coarse into fine. Shrunken levels use it to
// materialize a coarse correction in the doubled transfer layout
// before redistributing it; the eventual phi += correction then adds
// exactly the coarse value prolongInto would have added — same addend,
// same bits (a zero-fill-then-add would turn a -0 correction into +0).
func prolongSet(p *stencil.Pool, coarse, fine *grid.Grid) {
	d := fine.Dims()
	fd := fine.Data()
	cd := coarse.Data()
	p.Exec(d[0], func(_, i0, i1 int) {
		for i := i0; i < i1; i++ {
			for j := 0; j < d[1]; j++ {
				frow := fine.Index(i, j, 0)
				crow := coarse.Index(i/2, j/2, 0)
				for k := 0; k < d[2]; k++ {
					fd[frow+k] = cd[crow+k/2]
				}
			}
		}
	})
	grid.NoteTraffic(fine.Points()+coarse.Points(), 1)
}

// vcycle performs one V-cycle from level l for A phi = rhs. It is
// entered only by ranks active at level l.
func (mg *Multigrid) vcycle(l int, phi, rhs *grid.Grid) {
	d := mg.D
	defer d.Cart.TraceRank().Region("mg.vcycle").End()
	lv := mg.levels[l]
	if l == len(mg.levels)-1 {
		mg.smooth(lv, phi, rhs, 60) // coarsest: relax hard
		return
	}
	mg.smooth(lv, phi, rhs, mg.PreSmooth)
	var discard detsum.Acc
	mg.residualInto(lv, lv.res, phi, rhs, &discard)
	next := mg.levels[l+1]
	if next.shrunk {
		// Level redistribution: move the residual into the doubled
		// transfer layout of the surviving ranks, restrict and recurse
		// on their sub-communicator, and bring the correction back.
		// Ranks outside the shrunken grid send their residual pieces and
		// park on the return transfer's blocking receives until the
		// coarse correction arrives.
		next.down.Run(lv.comm, lv.res, next.xfer, redistDownTag)
		if next.active {
			restrictFull(d.pool, next.xfer, next.rhs)
			next.phi.Zero()
			mg.vcycle(l+1, next.phi, next.rhs)
			prolongSet(d.pool, next.phi, next.xfer)
		}
		next.up.Run(lv.comm, next.xfer, lv.res, redistUpTag)
		// phi += correction: the addend is bit-identical to the coarse
		// value prolongInto adds at the same global index.
		d.pool.Axpy(phi, 1, lv.res)
	} else {
		restrictFull(d.pool, lv.res, next.rhs)
		next.phi.Zero()
		mg.vcycle(l+1, next.phi, next.rhs)
		prolongInto(d.pool, next.phi, phi)
	}
	mg.smooth(lv, phi, rhs, mg.PostSmooth)
}

// Solve iterates V-cycles until the relative residual of ∇²phi = rhs
// drops below Tol, returning cycles used and the final relative
// residual.
func (mg *Multigrid) Solve(phi, rhs *grid.Grid) (int, float64, error) {
	d := mg.D
	defer d.Cart.TraceRank().Region("mg.solve").End()
	top := mg.levels[0]
	if phi.Dims() != d.local || rhs.Dims() != d.local {
		return 0, 0, fmt.Errorf("gpaw: multigrid built for %v, got %v", d.local, phi.Dims())
	}
	b := rhs.Clone()
	if d.BC == Periodic {
		d.removeMean(b)
	}
	norm0 := d.Norm2(b)
	if norm0 == 0 {
		phi.Fill(0)
		return 0, 0, nil
	}
	relNorm := func() float64 {
		var acc detsum.Acc
		mg.residualInto(top, top.res, phi, b, &acc)
		return math.Sqrt(d.reduceAcc(&acc)) / norm0
	}
	for cyc := 1; cyc <= mg.MaxCycles; cyc++ {
		mg.vcycle(0, phi, b)
		if d.BC == Periodic {
			d.removeMean(phi)
		}
		if rel := relNorm(); rel < mg.Tol {
			return cyc, rel, nil
		}
	}
	rel := relNorm()
	return mg.MaxCycles, rel, errNotConverged("multigrid", rel)
}
