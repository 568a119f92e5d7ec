package stencil

import (
	"fmt"

	"repro/internal/detsum"
	"repro/internal/grid"
)

// Fused kernels: one stencil sweep combined with the BLAS-1 work a
// solver performs right after it. Each kernel reads and writes every
// grid exactly once, cutting the memory passes of a solver iteration
// roughly in half versus chains of Apply/Scale/Axpy/Dot (see the
// package comment for the stream model). All kernels evaluate the
// stencil one row at a time through stencilBlock into a cache-resident
// row buffer, so their stencil values are bit-identical to Apply's. The
// elementwise rest of each row (the epilogue) loops over operands
// re-sliced to the row's length, so it carries no bounds check (CI
// holds the bce:begin/bce:end regions to that).
//
// Reductions accumulate per-worker detsum.Acc partials merged exactly,
// so every result is independent of the pool's worker count and of any
// distributed-memory partitioning of the same elements (see
// internal/detsum). The reducing kernels hand their rows to
// Acc.MulRows, which takes each block through the per-exponent front
// end, with the same bits as feeding the Acc row by row.
//
// Aliasing: the grid the stencil reads (src/phi) must not alias any
// output grid — the stencil reads neighbouring planes that a fused
// in-place write would corrupt. Pure elementwise operands (b, rhs, v, y)
// may alias the output only where noted.

// checkFused panics unless every grid matches the stencil source's
// extents and the source halo covers the radius.
func (op *Operator) checkFused(kernel string, src *grid.Grid, others ...*grid.Grid) {
	for _, g := range others {
		if g.Nx != src.Nx || g.Ny != src.Ny || g.Nz != src.Nz {
			panic(fmt.Sprintf("stencil: %s extent mismatch", kernel))
		}
	}
	if src.H < op.R {
		panic(fmt.Sprintf("stencil: %s source halo %d < stencil radius %d", kernel, src.H, op.R))
	}
}

// Scaled returns the operator with every coefficient multiplied by s.
// Applying Scaled(-1) is bitwise equal to applying op and negating the
// result (IEEE rounding is sign-symmetric), so solvers that need -op —
// CG's positive-definite -∇² — fold the sign into the operator instead
// of spending a full Scale pass per iteration.
func (op *Operator) Scaled(s float64) *Operator {
	scale := func(w []float64) []float64 {
		out := make([]float64, len(w))
		for i, v := range w {
			out[i] = s * v
		}
		return out
	}
	return Operator{
		R:      op.R,
		Center: s * op.Center,
		X:      scale(op.X),
		Y:      scale(op.Y),
		Z:      scale(op.Z),
	}.withViews()
}

// sweep runs body over op's region of a sweep over g and accounts
// streams memory streams per point. Full and Interior split the x
// planes of their box across the pool, body receiving the worker index
// and its share; the Shell is O(surface) work, so its up to six blocks
// run on the calling goroutine as worker 0. row is rowLen values of
// scratch (one z-row for the kernels that stage the stencil value, 0
// for those that do not) private to the goroutine running body.
func (op *Operator) sweep(p *Pool, g *grid.Grid, streams, rowLen int, body func(w int, row []float64, b Block)) {
	grid.NoteTraffic(op.region.Points(g.Nx, g.Ny, g.Nz, op.R), streams)
	box := Block{0, g.Nx, 0, g.Ny, 0, g.Nz}
	switch op.region {
	case Interior:
		box = InteriorBlock(g.Nx, g.Ny, g.Nz, op.R)
	case Shell:
		var blocks [6]Block
		row := make([]float64, rowLen)
		for _, b := range AppendShellBlocks(blocks[:0], g.Nx, g.Ny, g.Nz, op.R) {
			body(0, row, b)
		}
		return
	}
	if box.Empty() {
		return
	}
	p.Exec(box.X1-box.X0, func(w, lo, hi int) {
		sub := box
		sub.X0, sub.X1 = box.X0+lo, box.X0+hi
		body(w, make([]float64, rowLen), sub)
	})
}

// sweepAcc is sweep for the kernels that reduce: body adds its block's
// terms into the accumulator it is handed — acc itself when one
// goroutine runs the whole region, else a per-worker partial merged
// into acc afterwards. The sums are exact, so acc ends up with the same
// bits however the points were split, across workers or across the
// Interior and Shell views accumulating into one acc.
func (op *Operator) sweepAcc(p *Pool, g *grid.Grid, streams, rowLen int, acc *detsum.Acc, body func(a *detsum.Acc, row []float64, b Block)) {
	if op.region == Shell || p.Workers() == 1 {
		op.sweep(nil, g, streams, rowLen, func(_ int, row []float64, b Block) { body(acc, row, b) })
		return
	}
	accs := make([]detsum.Acc, p.Workers())
	op.sweep(p, g, streams, rowLen, func(w int, row []float64, b Block) { body(&accs[w], row, b) })
	mergeAccs(acc, accs)
}

// ApplyDotAcc computes dst = op(src) and accumulates <src, dst> into
// acc in the same sweep, for callers that fold partial sums across MPI
// ranks. The reduction reuses cache-hot values, so the kernel stays at
// the plain operator's 2 streams — CG's p·Ap comes for free.
func (op *Operator) ApplyDotAcc(p *Pool, dst, src *grid.Grid, acc *detsum.Acc) {
	op.checkFused("ApplyDot", src, dst)
	lt := op.gridTaps(src)
	op.sweepAcc(p, src, 2, 0, acc, func(a *detsum.Acc, _ []float64, b Block) {
		op.applyDotBlock(dst, src, lt, a, b)
	})
}

// applyDotBlock is ApplyDotAcc over one block.
func (op *Operator) applyDotBlock(dst, src *grid.Grid, lt *layoutTaps, a *detsum.Acc, blk Block) {
	in := src.Data()
	out := dst.Data()
	n := blk.Z1 - blk.Z0
	a.MulRows(blk.X1-blk.X0, blk.Y1-blk.Y0, func(i, j int) ([]float64, []float64) {
		srow := src.Index(blk.X0+i, blk.Y0+j, blk.Z0)
		drow := dst.Index(blk.X0+i, blk.Y0+j, blk.Z0)
		stencilBlock(out, in, drow, srow, 1, 1, n, 0, 0, 0, 0, op.Center, lt)
		return in[srow : srow+n], out[drow : drow+n]
	})
}

// ApplyResidualAcc computes r = b - op(phi) and accumulates |r|^2 into
// acc in one sweep (3 streams, versus 9 for Apply+Scale+Axpy+Dot). r may
// alias b; it must not alias phi.
func (op *Operator) ApplyResidualAcc(p *Pool, r, b, phi *grid.Grid, acc *detsum.Acc) {
	op.checkFused("ApplyResidual", phi, r, b)
	lt := op.gridTaps(phi)
	op.sweepAcc(p, phi, 3, phi.Nz, acc, func(a *detsum.Acc, row []float64, blk Block) {
		op.applyResidualBlock(r, b, phi, lt, row, a, blk)
	})
}

// applyResidualBlock is ApplyResidualAcc over one block; row holds at
// least Z1-Z0 values of scratch.
func (op *Operator) applyResidualBlock(r, b, phi *grid.Grid, lt *layoutTaps, row []float64, a *detsum.Acc, blk Block) {
	in := phi.Data()
	rd := r.Data()
	bd := b.Data()
	n := blk.Z1 - blk.Z0
	a.MulRows(blk.X1-blk.X0, blk.Y1-blk.Y0, func(i, j int) ([]float64, []float64) {
		i, j = blk.X0+i, blk.Y0+j
		buf := row[:n]
		stencilBlock(buf, in, 0, phi.Index(i, j, blk.Z0), 1, 1, n, 0, 0, 0, 0, op.Center, lt)
		res, bv := rd[r.Index(i, j, blk.Z0):][:n], bd[b.Index(i, j, blk.Z0):][:n]
		// bce:begin
		for k, s := range buf {
			res[k] = bv[k] - s
		}
		// bce:end
		return res, res
	})
}

// ApplySmooth computes dst = phi + c*(rhs - op(phi)) in one sweep
// (3 streams) — a damped Jacobi relaxation step with c = omega/diag.
// The product is rounded before it is added (no fused multiply-add on
// any architecture). dst must not alias phi; it may alias rhs.
func (op *Operator) ApplySmooth(p *Pool, dst, phi, rhs *grid.Grid, c float64) {
	op.checkFused("ApplySmooth", phi, dst, rhs)
	lt := op.gridTaps(phi)
	op.sweep(p, phi, 3, phi.Nz, func(_ int, row []float64, b Block) {
		op.applySmoothBlock(dst, phi, rhs, lt, row, c, b)
	})
}

// applySmoothBlock is ApplySmooth over one block; row as above.
func (op *Operator) applySmoothBlock(dst, phi, rhs *grid.Grid, lt *layoutTaps, row []float64, c float64, blk Block) {
	in := phi.Data()
	out := dst.Data()
	bd := rhs.Data()
	n := blk.Z1 - blk.Z0
	buf := row[:n]
	for i := blk.X0; i < blk.X1; i++ {
		for j := blk.Y0; j < blk.Y1; j++ {
			srow := phi.Index(i, j, blk.Z0)
			stencilBlock(buf, in, 0, srow, 1, 1, n, 0, 0, 0, 0, op.Center, lt)
			smoothRow(out[dst.Index(i, j, blk.Z0):][:n], buf, in[srow:][:n], bd[rhs.Index(i, j, blk.Z0):][:n], c)
		}
	}
}

// smoothRow is ApplySmooth's epilogue on one row of len(o) points, with
// s the stencil value of phi: o = phi + c*(rhs - s). A leaf, like
// stepRow.
func smoothRow(o, s, phi, rhs []float64, c float64) {
	n := len(o)
	s, phi, rhs = s[:n], phi[:n], rhs[:n]
	// bce:begin
	for k, sk := range s {
		o[k] = phi[k] + float64(c*(rhs[k]-sk))
	}
	// bce:end
}

// ApplyRecurrence computes dst = beta*src + alpha*(op(src) + v.*src) +
// gamma*prev in one sweep, with v and prev optional (nil): the fused
// Kohn-Sham workhorse, and one step of a three-term recurrence in
// H = op+v (the Chebyshev filter's T_{k+1} = 2(H-c)/e T_k - T_{k-1},
// src = T_k, prev = T_{k-1}), so a degree-k filter is k of these sweeps
// and no other pass. 2 streams, +1 each for v and prev. Every product is
// rounded before it is added (the conversions keep an FMA-capable
// architecture from fusing). dst must not alias src or v; it may be
// prev, which is read point by point before dst is written.
func (op *Operator) ApplyRecurrence(p *Pool, dst, src, v, prev *grid.Grid, alpha, beta, gamma float64) {
	streams := 2
	op.checkFused("ApplyRecurrence", src, dst)
	if v != nil {
		op.checkFused("ApplyRecurrence", src, v)
		streams++
	}
	if prev != nil {
		op.checkFused("ApplyRecurrence", src, prev)
		streams++
	}
	lt := op.gridTaps(src)
	op.sweep(p, src, streams, src.Nz, func(_ int, row []float64, b Block) {
		op.applyStepBlock(dst, src, v, prev, lt, row, alpha, beta, gamma, b)
	})
}

// ApplyStep is ApplyRecurrence without the prev term: dst = beta*src +
// alpha*(op+v)(src). With alpha=1, beta=0 it is a Hamiltonian
// application dst = (op+v)(src).
func (op *Operator) ApplyStep(p *Pool, dst, src, v *grid.Grid, alpha, beta float64) {
	op.ApplyRecurrence(p, dst, src, v, nil, alpha, beta, 0)
}

// applyStepBlock is ApplyRecurrence over one block; row as above.
func (op *Operator) applyStepBlock(dst, src, v, prev *grid.Grid, lt *layoutTaps, row []float64, alpha, beta, gamma float64, blk Block) {
	in := src.Data()
	out := dst.Data()
	var vd, pd []float64
	if v != nil {
		vd = v.Data()
	}
	if prev != nil {
		pd = prev.Data()
	}
	n := blk.Z1 - blk.Z0
	buf := row[:n]
	for i := blk.X0; i < blk.X1; i++ {
		for j := blk.Y0; j < blk.Y1; j++ {
			srow := src.Index(i, j, blk.Z0)
			stencilBlock(buf, in, 0, srow, 1, 1, n, 0, 0, 0, 0, op.Center, lt)
			var vx, p []float64
			if v != nil {
				vx = vd[v.Index(i, j, blk.Z0):][:n]
			}
			if prev != nil {
				p = pd[prev.Index(i, j, blk.Z0):][:n]
			}
			stepRow(out[dst.Index(i, j, blk.Z0):][:n], buf, in[srow:][:n], vx, p, alpha, beta, gamma)
		}
	}
}

// stepRow is ApplyRecurrence's epilogue on one row of len(o) points:
// with s the stencil value and x the source, t = s + v*x (s alone when
// vx is nil), then o = beta*x + alpha*t + gamma*p (no gamma term when p
// is nil; o = t itself when beta = 0 and alpha = 1, o = x + alpha*t
// when beta = 1). p may be o: each p[k] is read before o[k] is written.
// A leaf of its own, so the block walk's state stays out of the
// registers the loop needs.
func stepRow(o, s, x, vx, p []float64, alpha, beta, gamma float64) {
	n := len(o)
	s, x = s[:n], x[:n]
	// An absent operand stands in as x, never read, so that every
	// operand is re-sliced to n and the loops carry no bounds check.
	addV, recur := vx != nil, p != nil
	if !addV {
		vx = x
	}
	if !recur {
		p = x
	}
	vx, p = vx[:n], p[:n]
	// bce:begin
	switch {
	case recur:
		for k, t := range s {
			if addV {
				t += float64(vx[k] * x[k])
			}
			o[k] = float64(beta*x[k]) + float64(alpha*t) + float64(gamma*p[k])
		}
	case beta == 0 && alpha == 1:
		for k, t := range s {
			if addV {
				t += float64(vx[k] * x[k])
			}
			o[k] = t
		}
	case beta == 1:
		for k, t := range s {
			if addV {
				t += float64(vx[k] * x[k])
			}
			o[k] = x[k] + float64(alpha*t)
		}
	default:
		for k, t := range s {
			if addV {
				t += float64(vx[k] * x[k])
			}
			o[k] = float64(beta*x[k]) + float64(alpha*t)
		}
	}
	// bce:end
}
