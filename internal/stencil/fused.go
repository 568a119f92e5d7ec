package stencil

import (
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
// A fusion is a value (Kernel), not a closure: applied on a one-worker
// pool it runs on the caller, on more workers it is posted to the
// pool's job slot, and it allocates nothing either way.
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

// Kernel is one fused sweep, unbound: the operator view it covers,
// the epilogue applied to each stencil value, its elementwise operand a
// (nil for none) and what it reduces. Build one with Dot, Residual,
// Smooth or Step, narrow it with Over, run it with Apply. Being a value,
// a Kernel is built once per solver call and applied to every state.
type Kernel struct {
	op     *Operator
	ep     epilogue
	a      *grid.Grid
	reduce int
	tiled  bool // walk each block in cache tiles (ApplyParallel)
}

// What a Kernel accumulates into Apply's acc.
const (
	reduceNone = iota
	reduceSrc  // <src, dst>
	reduceDst  // <dst, dst>
)

// Dot is dst = op(src) with <src, dst> accumulated in the same sweep,
// for callers that fold partial sums across MPI ranks. The reduction
// reuses cache-hot values, so the kernel stays at the plain operator's
// 2 streams — CG's p·Ap comes for free.
func (op *Operator) Dot() Kernel { return Kernel{op: op, reduce: reduceSrc} }

// Residual is r = b - op(phi) with |r|^2 accumulated (3 streams, versus
// 9 for Apply+Scale+Axpy+Dot); a nil acc computes r alone. r may alias
// b; it must not alias phi.
func (op *Operator) Residual(b *grid.Grid) Kernel {
	return Kernel{op: op, ep: epilogue{kind: epResidual}, a: b, reduce: reduceDst}
}

// Smooth is dst = phi + c*(rhs - op(phi)) in one sweep (3 streams) — a
// damped Jacobi relaxation step with c = omega/diag. The product is
// rounded before it is added (no fused multiply-add on any
// architecture). dst must not alias phi; it may alias rhs.
func (op *Operator) Smooth(rhs *grid.Grid, c float64) Kernel {
	return Kernel{op: op, ep: epilogue{kind: epSmooth, alpha: c}, a: rhs}
}

// Step is dst = beta*src + alpha*(op(src) + v.*src) + gamma*prev in one
// sweep, v optional (nil) and the gamma term present only when Apply is
// handed a prev: the fused Kohn-Sham workhorse, and one step of a
// three-term recurrence in H = op+v (the Chebyshev filter's T_{k+1} =
// 2(H-c)/e T_k - T_{k-1}, src = T_k, prev = T_{k-1}), so a degree-k
// filter is k of these sweeps and no other pass. 2 streams, +1 each for
// v and prev. Every product is rounded before it is added. dst must not
// alias src or v; it may be prev, which is read point by point before
// dst is written. With alpha = 1, beta = 0 and no prev it is a
// Hamiltonian application dst = (op+v)(src).
func (op *Operator) Step(v *grid.Grid, alpha, beta, gamma float64) Kernel {
	return Kernel{op: op, ep: stepEpilogue(v != nil, false, alpha, beta, gamma), a: v}
}

// Over returns k narrowed to region r of its operator (Operator.Over).
func (k Kernel) Over(r Region) Kernel {
	k.op = k.op.Over(r)
	return k
}

// Apply runs k over its region of one state: dst from src, with prev a
// Step's third term (nil for none; no other kernel takes one), adding a
// reducing kernel's terms into acc (a nil acc takes none). The grids
// must share src's extents, and src's halo must cover the radius. The
// Shell is O(surface) work: its up to six blocks run on the caller.
// Full and Interior run on the caller too when p has one worker (a nil
// pool included); with more, the box's x planes are posted to p's job
// slot as data, each share adding its terms into its own partial, merged
// into acc in share order, so acc ends up with the same bits however the
// points were split. Neither path allocates, which
// TestFusedKernelsAllocationFree pins for every kernel and region on
// one, two and four workers.
//
//gpaw:hotpath
func (k Kernel) Apply(p *Pool, dst, src, prev *grid.Grid, acc *detsum.Acc) {
	op, streams := k.op, 2
	if k.ep.readsA() {
		streams++
	}
	if prev != nil {
		if k.reduce != reduceNone || k.ep.kind == epSmooth {
			panic("stencil: prev handed to a kernel that is not a Step")
		}
		k.ep.kind = epRecur
		streams++
	}
	for _, g := range [...]*grid.Grid{dst, k.a, prev} {
		if g != nil && (g.Nx != src.Nx || g.Ny != src.Ny || g.Nz != src.Nz) {
			panic("stencil: kernel grid extent mismatch")
		}
	}
	if src.H < op.R {
		panic("stencil: kernel source halo thinner than the stencil radius")
	}
	s := sweep{out: dst, in: src, a: k.a, p: prev, center: op.Center, lt: op.gridTaps(src), ep: k.ep, tiled: k.tiled}
	switch k.reduce {
	case reduceSrc:
		s.x = src
	case reduceDst:
		s.x = dst
	default:
		acc = nil
	}
	grid.NoteTraffic(op.region.Points(src.Nx, src.Ny, src.Nz, op.R), streams)
	box := Block{0, src.Nx, 0, src.Ny, 0, src.Nz}
	switch op.region {
	case Interior:
		box = InteriorBlock(src.Nx, src.Ny, src.Nz, op.R)
	case Shell:
		var blocks [6]Block
		for _, b := range AppendShellBlocks(blocks[:0], src.Nx, src.Ny, src.Nz, op.R) {
			s.run(acc, b)
		}
		return
	}
	switch {
	case box.Empty():
	case p.Workers() == 1:
		s.run(acc, box)
	default:
		j := job{n: box.X1 - box.X0, s: s, box: box}
		p.fork(&j, acc)
	}
}

// sweep is a Kernel bound to one state's grids, as the pool's job slot
// holds it: out is ep applied to the stencil of in, a and p are ep's
// operands (nil where it has none), and a reducing sweep sets x: it
// accumulates <x, out>.
type sweep struct {
	out, in, a, p, x *grid.Grid
	center           float64
	lt               *layoutTaps
	ep               epilogue
	tiled            bool
}

// run computes block b of s. Handed an accumulator, a reducing sweep
// stores the block one x plane at a time and accumulates the products
// of each plane's rows of x and out into a right after it, while the
// plane is in cache.
func (s *sweep) run(a *detsum.Acc, b Block) {
	if a == nil {
		s.fill(b)
		return
	}
	xs, ys, n := gridSpan(s.x, b), gridSpan(s.out, b), b.Z1-b.Z0
	a.MulRows(b.X1-b.X0, b.Y1-b.Y0, func(i, j int) ([]float64, []float64) {
		if j == 0 {
			s.fill(Block{b.X0 + i, b.X0 + i + 1, b.Y0, b.Y1, b.Z0, b.Z1})
		}
		return xs.row(i, j, 0, n), ys.row(i, j, 0, n)
	})
}

// fill runs fusedBlock over block b of s's grids: as one block, or
// tile by tile when s is tiled.
func (s *sweep) fill(b Block) {
	tj, tk := b.Y1-b.Y0, b.Z1-b.Z0
	if s.tiled {
		tj, tk = tileJ, tileK
	}
	for j0 := b.Y0; j0 < b.Y1; j0 += tj {
		for k0 := b.Z0; k0 < b.Z1; k0 += tk {
			t := Block{b.X0, b.X1, j0, min(j0+tj, b.Y1), k0, min(k0+tk, b.Z1)}
			fusedBlock(gridSpan(s.out, t), gridSpan(s.in, t), gridSpan(s.a, t), gridSpan(s.p, t),
				t.X1-t.X0, t.Y1-t.Y0, t.Z1-t.Z0, s.center, s.lt, s.ep)
		}
	}
}

// ApplyDotAcc is op.Dot() on one state.
func (op *Operator) ApplyDotAcc(p *Pool, dst, src *grid.Grid, acc *detsum.Acc) {
	op.Dot().Apply(p, dst, src, nil, acc)
}

// ApplyStep is op.Step without the prev term on one state.
func (op *Operator) ApplyStep(p *Pool, dst, src, v *grid.Grid, alpha, beta float64) {
	op.Step(v, alpha, beta, 0).Apply(p, dst, src, nil, nil)
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

// stepEpilogue is a Step's epilogue: o = beta*x + alpha*t +
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

// residualRow is Residual's epilogue on one row of len(o)
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

// smoothRow is Smooth's epilogue on one row of len(o) points, with
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
