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
// package comment for the stream model). Every kernel hands each of its
// blocks to fusedBlock with an epilogue — what to do with a stencil
// value s before it is stored — so its stencil values are bit-identical
// to Apply's. On an AVX2 host the 12-tap stencil and the epilogue run
// the whole block in one blockAVX2 call, four points in registers
// between the stencil and the store; elsewhere stencilRow fills a
// z-row of scratch and the epilogue's row loop (residualRow, smoothRow,
// stepRow) runs over operands re-sliced to the row's length, so it
// carries no bounds check (CI holds the bce:begin/bce:end regions to
// that). Both paths round the same operations in the same order.
//
// Reductions accumulate per-worker detsum.Acc partials merged exactly,
// so every result is independent of the pool's worker count and of any
// distributed-memory partitioning of the same elements (see
// internal/detsum). The reducing kernels store a block one x plane at
// a time and hand each plane's rows to Acc.MulRows right after it,
// while the plane is in cache; MulRows takes them through the
// per-exponent front end, with the same bits as feeding the Acc row by
// row.
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
// scratch (layoutTaps.scratch: one z-row where the Go path stages the
// stencil value, else 0) private to the goroutine running body.
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
// Interior and Shell views accumulating into one acc. A nil acc takes
// no terms: body is handed nil, and the sweep is sweep's.
func (op *Operator) sweepAcc(p *Pool, g *grid.Grid, streams, rowLen int, acc *detsum.Acc, body func(a *detsum.Acc, row []float64, b Block)) {
	if acc == nil || op.region == Shell || p.Workers() == 1 {
		op.sweep(p, g, streams, rowLen, func(_ int, row []float64, b Block) { body(acc, row, b) })
		return
	}
	accs := make([]detsum.Acc, p.Workers())
	op.sweep(p, g, streams, rowLen, func(w int, row []float64, b Block) { body(&accs[w], row, b) })
	mergeAccs(acc, accs)
}

// block runs fusedBlock over block b of the grids: the stencil of in,
// ep applied, stored in out; a and p are ep's operands (nil where it
// has none).
func (op *Operator) block(out, in, a, p *grid.Grid, lt *layoutTaps, ep epilogue, row []float64, b Block) {
	fusedBlock(gridSpan(out, b), gridSpan(in, b), gridSpan(a, b), gridSpan(p, b),
		b.X1-b.X0, b.Y1-b.Y0, b.Z1-b.Z0, op.Center, lt, ep, row)
}

// fillMulRows runs fill over block b plane by plane and accumulates the
// products of x's and y's rows over each plane into a right after it,
// while the plane is in cache; a nil a takes none, and fill runs over
// the whole block at once.
func fillMulRows(a *detsum.Acc, x, y *grid.Grid, b Block, fill func(Block)) {
	if a == nil {
		fill(b)
		return
	}
	xs, ys, n := gridSpan(x, b), gridSpan(y, b), b.Z1-b.Z0
	a.MulRows(b.X1-b.X0, b.Y1-b.Y0, func(i, j int) ([]float64, []float64) {
		if j == 0 {
			fill(Block{b.X0 + i, b.X0 + i + 1, b.Y0, b.Y1, b.Z0, b.Z1})
		}
		return xs.row(i, j, n), ys.row(i, j, n)
	})
}

// ApplyDotAcc computes dst = op(src) and accumulates <src, dst> into
// acc in the same sweep, for callers that fold partial sums across MPI
// ranks. The reduction reuses cache-hot values, so the kernel stays at
// the plain operator's 2 streams — CG's p·Ap comes for free.
func (op *Operator) ApplyDotAcc(p *Pool, dst, src *grid.Grid, acc *detsum.Acc) {
	op.checkFused("ApplyDot", src, dst)
	lt := op.gridTaps(src)
	op.sweepAcc(p, src, 2, 0, acc, func(a *detsum.Acc, _ []float64, b Block) {
		fillMulRows(a, src, dst, b, func(pl Block) { op.applyBlock(dst, src, lt, pl) })
	})
}

// ApplyResidualAcc computes r = b - op(phi) and accumulates |r|^2 into
// acc in one sweep (3 streams, versus 9 for Apply+Scale+Axpy+Dot); a
// nil acc computes r alone, for callers with no use for the norm. r may
// alias b; it must not alias phi.
func (op *Operator) ApplyResidualAcc(p *Pool, r, b, phi *grid.Grid, acc *detsum.Acc) {
	op.checkFused("ApplyResidual", phi, r, b)
	lt := op.gridTaps(phi)
	op.sweepAcc(p, phi, 3, lt.scratch(phi.Nz), acc, func(a *detsum.Acc, row []float64, blk Block) {
		fillMulRows(a, r, r, blk, func(pl Block) {
			op.block(r, phi, b, nil, lt, epilogue{kind: epResidual}, row, pl)
		})
	})
}

// ApplySmooth computes dst = phi + c*(rhs - op(phi)) in one sweep
// (3 streams) — a damped Jacobi relaxation step with c = omega/diag.
// The product is rounded before it is added (no fused multiply-add on
// any architecture). dst must not alias phi; it may alias rhs.
func (op *Operator) ApplySmooth(p *Pool, dst, phi, rhs *grid.Grid, c float64) {
	op.checkFused("ApplySmooth", phi, dst, rhs)
	lt := op.gridTaps(phi)
	ep := epilogue{kind: epSmooth, alpha: c}
	op.sweep(p, phi, 3, lt.scratch(phi.Nz), func(_ int, row []float64, b Block) {
		op.block(dst, phi, rhs, nil, lt, ep, row, b)
	})
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
	ep := stepEpilogue(v != nil, prev != nil, alpha, beta, gamma)
	op.sweep(p, src, streams, lt.scratch(src.Nz), func(_ int, row []float64, b Block) {
		op.block(dst, src, v, prev, lt, ep, row, b)
	})
}

// ApplyStep is ApplyRecurrence without the prev term: dst = beta*src +
// alpha*(op+v)(src). With alpha=1, beta=0 it is a Hamiltonian
// application dst = (op+v)(src).
func (op *Operator) ApplyStep(p *Pool, dst, src, v *grid.Grid, alpha, beta float64) {
	op.ApplyRecurrence(p, dst, src, v, nil, alpha, beta, 0)
}

// Epilogue kinds. blockAVX2 reads them as constants too.
const (
	epStore    = iota // s, or t for a step with beta = 0 and alpha = 1
	epResidual        // b - s, b the operand a
	epSmooth          // phi + c*(rhs - s), rhs the operand a, c in alpha
	epAxpy            // x + alpha*t
	epAxpby           // beta*x + alpha*t
	epRecur           // beta*x + alpha*t + gamma*p
)

// epilogue is what a fused kernel does with each stencil value s of a
// block before it stores it, its kind and constants: x is the
// stencil's source, a and p the block's elementwise operands. A step
// (epStore with addV, epAxpy, epAxpby, epRecur) first forms t = s +
// v*x, v the operand a, when addV holds, and t = s otherwise. The zero
// epilogue stores s.
type epilogue struct {
	kind               int
	addV               bool
	alpha, beta, gamma float64
}

// stepEpilogue is ApplyRecurrence's epilogue: o = beta*x + alpha*t +
// gamma*p, its gamma term only with prev, and o = t itself when beta =
// 0 and alpha = 1, o = x + alpha*t when beta = 1.
func stepEpilogue(addV, prev bool, alpha, beta, gamma float64) epilogue {
	kind := epAxpby
	switch {
	case prev:
		kind = epRecur
	case beta == 0 && alpha == 1:
		kind = epStore
	case beta == 1:
		kind = epAxpy
	}
	return epilogue{kind: kind, addV: addV, alpha: alpha, beta: beta, gamma: gamma}
}

// readsA reports whether ep reads the operand a.
func (ep epilogue) readsA() bool { return ep.addV || ep.kind == epResidual || ep.kind == epSmooth }

// row is ep on one row of len(o) points on the Go path: s the stencil
// values, x the source's, a and p the operands' (nil where absent).
func (ep epilogue) row(o, s, x, a, p []float64) {
	switch ep.kind {
	case epResidual:
		residualRow(o, a, s)
	case epSmooth:
		smoothRow(o, s, x, a, ep.alpha)
	default:
		if !ep.addV {
			a = nil
		}
		stepRow(o, s, x, a, p, ep.kind, ep.alpha, ep.beta, ep.gamma)
	}
}

// residualRow is ApplyResidualAcc's epilogue on one row of len(o)
// points: o = b - s. o may be b. A leaf, like stepRow.
func residualRow(o, b, s []float64) {
	n := len(o)
	b, s = b[:n], s[:n]
	// bce:begin
	for k, sk := range s {
		o[k] = b[k] - sk
	}
	// bce:end
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

// stepRow is a step's epilogue (epStore, epAxpy, epAxpby, epRecur) on
// one row of len(o) points: with s the stencil value and x the source,
// t = s + v*x (s alone when vx is nil), then o by kind. p may be o:
// each p[k] is read before o[k] is written. A leaf of its own, so the
// block walk's state stays out of the registers the loop needs.
func stepRow(o, s, x, vx, p []float64, kind int, alpha, beta, gamma float64) {
	n := len(o)
	s, x = s[:n], x[:n]
	// An absent operand stands in as x, never read, so that every
	// operand is re-sliced to n and the loops carry no bounds check.
	addV := vx != nil
	if !addV {
		vx = x
	}
	if p == nil {
		p = x
	}
	vx, p = vx[:n], p[:n]
	// bce:begin
	switch kind {
	case epRecur:
		for k, t := range s {
			if addV {
				t += float64(vx[k] * x[k])
			}
			o[k] = float64(beta*x[k]) + float64(alpha*t) + float64(gamma*p[k])
		}
	case epStore:
		for k, t := range s {
			if addV {
				t += float64(vx[k] * x[k])
			}
			o[k] = t
		}
	case epAxpy:
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
