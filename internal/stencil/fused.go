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
// between the stencil and the store; elsewhere stencilRow fills up to
// rowChunk values of a z-row on fusedBlock's stack and the epilogue's
// row loop (residualRow, smoothRow, stepRow) runs over operands
// re-sliced to that length, so it carries no bounds check (CI holds the
// bce:begin/bce:end regions to that). Both paths round the same
// operations in the same order.
//
// A kernel call is data (kernel), not a closure: on a one-worker pool
// it runs on the caller, on more workers it is posted to the pool's job
// slot, and it allocates nothing either way.
//
// Reductions accumulate per-share detsum.Acc partials merged exactly,
// so every result is independent of the pool's worker count and of any
// distributed-memory partitioning of the same elements (see
// internal/detsum). The reducing kernels store a block one x plane at
// a time and hand each plane's rows to Acc.MulRows right after it,
// while the plane is in cache; MulRows sums their products by
// error-free extraction in blocks (Rump, Ogita and Oishi, 2008), with
// the same bits as feeding the Acc row by row.
//
// Aliasing: the grid the stencil reads (src/phi) must not alias any
// output grid — the stencil reads neighbouring planes that a fused
// in-place write would corrupt. Pure elementwise operands (b, rhs, v, y)
// may alias the output only where noted.

// checkFused panics unless every grid matches the stencil source's
// extents and the source halo covers the radius.
func (op *Operator) checkFused(name string, src *grid.Grid, others ...*grid.Grid) {
	for _, g := range others {
		if g.Nx != src.Nx || g.Ny != src.Ny || g.Nz != src.Nz {
			panic(fmt.Sprintf("stencil: %s extent mismatch", name))
		}
	}
	if src.H < op.R {
		panic(fmt.Sprintf("stencil: %s source halo %d < stencil radius %d", name, src.H, op.R))
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

// kernel is one fused sweep as data: the grids and constants a kernel
// method was called with. out is ep applied to the stencil of in, a and
// p are ep's operands (nil where it has none), and a reducing kernel
// sets x: it accumulates <x, out>. tiled walks each block in cache
// tiles (ApplyParallel). Being data, not a closure, a kernel runs on
// the caller without a heap allocation.
type kernel struct {
	out, in, a, p, x *grid.Grid
	center           float64
	lt               *layoutTaps
	ep               epilogue
	tiled            bool
}

// kernel returns the store-only kernel out = op(in), ready for a
// caller to set its epilogue and operands.
func (op *Operator) kernel(out, in *grid.Grid) kernel {
	return kernel{out: out, in: in, center: op.Center, lt: op.gridTaps(in)}
}

// sweep runs k over op's region of a sweep over k.in, adding a reducing
// kernel's terms into acc (a nil acc takes none), and accounts streams
// memory streams per point. The Shell is O(surface) work: its up to six
// blocks run on the caller. Full and Interior run on the caller too
// when p has one worker (a nil pool included). With more workers the
// box's x planes are split across them (fanOut). Neither path hands a
// closure to anyone or allocates, which TestFusedKernelsAllocationFree
// pins for every kernel and region on one, two and four workers.
//
//gpaw:hotpath
func (op *Operator) sweep(p *Pool, k kernel, streams int, acc *detsum.Acc) {
	g := k.in
	grid.NoteTraffic(op.region.Points(g.Nx, g.Ny, g.Nz, op.R), streams)
	box := Block{0, g.Nx, 0, g.Ny, 0, g.Nz}
	switch op.region {
	case Interior:
		box = InteriorBlock(g.Nx, g.Ny, g.Nz, op.R)
	case Shell:
		var blocks [6]Block
		for _, b := range AppendShellBlocks(blocks[:0], g.Nx, g.Ny, g.Nz, op.R) {
			k.run(acc, b)
		}
		return
	}
	switch {
	case box.Empty():
	case p.Workers() == 1:
		k.run(acc, box)
	default:
		p.fanOut(k, box, acc)
	}
}

// fanOut is a sweep's multi-worker path: box's x planes split across
// p's workers, each share adding its terms into its own partial, merged
// into acc in share order (fork). The sums are exact, so acc ends up
// with the same bits however the points were split, across workers or
// across the Interior and Shell views accumulating into one acc. The
// sweep is posted as data, so a warmed fan-out allocates nothing.
func (p *Pool) fanOut(k kernel, box Block, acc *detsum.Acc) {
	j := job{kind: jobKernel, n: box.X1 - box.X0, k: k, box: box}
	p.fork(&j, acc)
}

// run computes block b of k's sweep. Handed an accumulator, a reducing
// kernel stores the block one x plane at a time and accumulates the
// products of each plane's rows of x and out into a right after it,
// while the plane is in cache.
func (k *kernel) run(a *detsum.Acc, b Block) {
	if a == nil {
		k.fill(b)
		return
	}
	xs, ys, n := gridSpan(k.x, b), gridSpan(k.out, b), b.Z1-b.Z0
	a.MulRows(b.X1-b.X0, b.Y1-b.Y0, func(i, j int) ([]float64, []float64) {
		if j == 0 {
			k.fill(Block{b.X0 + i, b.X0 + i + 1, b.Y0, b.Y1, b.Z0, b.Z1})
		}
		return xs.row(i, j, 0, n), ys.row(i, j, 0, n)
	})
}

// fill runs fusedBlock over block b of k's grids: as one block, or
// tile by tile when k is tiled.
func (k *kernel) fill(b Block) {
	tj, tk := b.Y1-b.Y0, b.Z1-b.Z0
	if k.tiled {
		tj, tk = tileJ, tileK
	}
	for j0 := b.Y0; j0 < b.Y1; j0 += tj {
		for k0 := b.Z0; k0 < b.Z1; k0 += tk {
			t := Block{b.X0, b.X1, j0, min(j0+tj, b.Y1), k0, min(k0+tk, b.Z1)}
			fusedBlock(gridSpan(k.out, t), gridSpan(k.in, t), gridSpan(k.a, t), gridSpan(k.p, t),
				t.X1-t.X0, t.Y1-t.Y0, t.Z1-t.Z0, k.center, k.lt, k.ep)
		}
	}
}

// ApplyDotAcc computes dst = op(src) and accumulates <src, dst> into
// acc in the same sweep, for callers that fold partial sums across MPI
// ranks. The reduction reuses cache-hot values, so the kernel stays at
// the plain operator's 2 streams — CG's p·Ap comes for free.
//
//gpaw:hotpath
func (op *Operator) ApplyDotAcc(p *Pool, dst, src *grid.Grid, acc *detsum.Acc) {
	op.checkFused("ApplyDot", src, dst)
	k := op.kernel(dst, src)
	k.x = src
	op.sweep(p, k, 2, acc)
}

// ApplyResidualAcc computes r = b - op(phi) and accumulates |r|^2 into
// acc in one sweep (3 streams, versus 9 for Apply+Scale+Axpy+Dot); a
// nil acc computes r alone, for callers with no use for the norm. r may
// alias b; it must not alias phi.
//
//gpaw:hotpath
func (op *Operator) ApplyResidualAcc(p *Pool, r, b, phi *grid.Grid, acc *detsum.Acc) {
	op.checkFused("ApplyResidual", phi, r, b)
	k := op.kernel(r, phi)
	k.a, k.x, k.ep = b, r, epilogue{kind: epResidual}
	op.sweep(p, k, 3, acc)
}

// ApplySmooth computes dst = phi + c*(rhs - op(phi)) in one sweep
// (3 streams) — a damped Jacobi relaxation step with c = omega/diag.
// The product is rounded before it is added (no fused multiply-add on
// any architecture). dst must not alias phi; it may alias rhs.
//
//gpaw:hotpath
func (op *Operator) ApplySmooth(p *Pool, dst, phi, rhs *grid.Grid, c float64) {
	op.checkFused("ApplySmooth", phi, dst, rhs)
	k := op.kernel(dst, phi)
	k.a, k.ep = rhs, epilogue{kind: epSmooth, alpha: c}
	op.sweep(p, k, 3, nil)
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
//
//gpaw:hotpath
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
	k := op.kernel(dst, src)
	k.a, k.p, k.ep = v, prev, stepEpilogue(v != nil, prev != nil, alpha, beta, gamma)
	op.sweep(p, k, streams, nil)
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
