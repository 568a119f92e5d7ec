package stencil

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/grid"
)

// Operator is a separable axis-aligned stencil: the output at a point is
//
//	out = Center*in(p) + Σ_axis Σ_{o=-R..R, o≠0} C_axis[o]*in(p + o*e_axis)
//
// which for R = 2 is exactly the paper's 13-point operation
// (C1..C13 in section II.A). Coefficient slices have length 2R+1 and are
// indexed by offset+R; the center entries of X, Y, Z must be zero — the
// merged center weight lives in Center.
//
// An Operator sweeps one Region of the grids it is applied to — the
// whole grid unless it is one of the Interior/Shell views Over returns.
type Operator struct {
	R       int
	Center  float64
	X, Y, Z []float64

	// region is the part of every sweep this view covers; views holds
	// the operator's three views, indexed by Region and sharing the
	// coefficient slices, so Over never allocates; lastTaps, shared the
	// same way, keeps the taps of the grid layout last swept.
	region   Region
	views    *[3]Operator
	lastTaps *atomic.Pointer[layoutTaps]
}

// layoutTaps is an operator's taps for one grid layout and the span of
// their offsets, the centre's 0 included: a point at s reads in[s+minOff]
// through in[s+maxOff].
type layoutTaps struct {
	sx, sy         int
	taps           []tap
	minOff, maxOff int
}

// withViews returns the Full view of a new operator with op's
// coefficients.
func (op Operator) withViews() *Operator {
	v := new([3]Operator)
	op.lastTaps = new(atomic.Pointer[layoutTaps])
	for r := range v {
		v[r] = op
		v[r].region, v[r].views = Region(r), v
	}
	return &v[Full]
}

// Over returns the view of op whose sweeps cover only region r; every
// kernel method of the view computes exactly the points of r, with the
// arithmetic of the Full sweep.
func (op *Operator) Over(r Region) *Operator { return &op.views[r] }

// NewOperator builds an operator from per-axis coefficient slices of
// length 2R+1 (center entries included). The three axis centers are
// merged into Center.
func NewOperator(r int, cx, cy, cz []float64) *Operator {
	if len(cx) != 2*r+1 || len(cy) != 2*r+1 || len(cz) != 2*r+1 {
		panic(fmt.Sprintf("stencil: coefficient length must be %d", 2*r+1))
	}
	op := Operator{
		R: r,
		X: append([]float64(nil), cx...),
		Y: append([]float64(nil), cy...),
		Z: append([]float64(nil), cz...),
	}
	op.Center = op.X[r] + op.Y[r] + op.Z[r]
	op.X[r], op.Y[r], op.Z[r] = 0, 0, 0
	return op.withViews()
}

// Laplacian returns the central-difference approximation of ∇² with the
// given per-axis radius on a uniform grid with spacing h. Radius 2 gives
// the paper's 13-point, fourth-order operator.
func Laplacian(r int, h float64) *Operator {
	w := CentralWeights(r, 2, h)
	return NewOperator(r, w, w, w)
}

// Points returns the number of grid points the stencil reads (13 for
// radius 2).
func (op *Operator) Points() int { return 6*op.R + 1 }

// FlopsPerPoint returns the floating-point operations per output point:
// one multiply per read plus adds to combine them. The fused kernels in
// fused.go add at most two or three flops per point on top of this
// (an axpy, a residual subtraction, or a dot accumulation) — noise next
// to the 25 flops of the radius-2 operator, which is why fusing is
// effectively free compute-wise while halving memory traffic.
func (op *Operator) FlopsPerPoint() int { return 2*op.Points() - 1 }

// BytesPerPoint returns the main-memory traffic per output point for a
// streaming implementation of the plain operator: one read of the input
// and one write of the output (neighbour reuse is served by cache),
// 2 streams x 8 bytes. Fused variants move more streams per sweep but
// far fewer per solver iteration: ApplyDot stays at 2 streams (16 B)
// because the reduction reuses cache-hot values; ApplyResidual and
// ApplySmooth are 3 streams (24 B). The unfused chains they replace
// cost 7-9 streams. See the package comment for the full traffic model.
func (op *Operator) BytesPerPoint() int { return 16 }

// Apply computes dst = op(src) over op's region on the calling
// goroutine, reading halo cells of src up to distance R (the Interior
// view reads none). Halos must have been filled beforehand (by
// grid.FillHalosPeriodic, grid.FillHalosZero, or a distributed halo
// exchange). dst and src must have identical interiors and src's halo
// must be at least R.
func (op *Operator) Apply(dst, src *grid.Grid) {
	op.checkFused("Apply", src, dst)
	lt := op.gridTaps(src)
	op.sweep(nil, src, 2, 0, func(_ int, _ []float64, b Block) { op.applyBlock(dst, src, lt, b) })
}

// tap is one nonzero off-center stencil coefficient, flattened into a
// (offset-in-floats, coefficient) pair for a particular grid layout.
type tap struct {
	off int
	c   float64
}

// layout flattens the per-axis nonzero coefficients for a grid with the
// given x and y strides (z stride is 1). Callers only read the result.
func (op *Operator) layout(sx, sy int) *layoutTaps {
	if c := op.lastTaps.Load(); c != nil && c.sx == sx && c.sy == sy {
		return c
	}
	r := op.R
	taps := make([]tap, 0, 6*r)
	for o := -r; o <= r; o++ {
		if o == 0 {
			continue
		}
		if c := op.X[o+r]; c != 0 {
			taps = append(taps, tap{o * sx, c})
		}
	}
	for o := -r; o <= r; o++ {
		if o == 0 {
			continue
		}
		if c := op.Y[o+r]; c != 0 {
			taps = append(taps, tap{o * sy, c})
		}
	}
	for o := -r; o <= r; o++ {
		if o == 0 {
			continue
		}
		if c := op.Z[o+r]; c != 0 {
			taps = append(taps, tap{o, c})
		}
	}
	lt := &layoutTaps{sx: sx, sy: sy, taps: taps}
	for _, tp := range taps {
		lt.minOff, lt.maxOff = min(lt.minOff, tp.off), max(lt.maxOff, tp.off)
	}
	op.lastTaps.Store(lt)
	return lt
}

// gridTaps builds the taps for a grid's memory layout.
func (op *Operator) gridTaps(g *grid.Grid) *layoutTaps {
	sx, sy := g.Strides()
	return op.layout(sx, sy)
}

// span is where a block lies in one slice: the index of its first
// point and the slice's plane and row strides (the z stride is 1). The
// zero span stands for an absent operand.
type span struct {
	data       []float64
	i0, sx, sy int
}

// gridSpan is where block b lies in g's data; the zero span for a nil
// g.
func gridSpan(g *grid.Grid, b Block) span {
	if g == nil {
		return span{}
	}
	sx, sy := g.Strides()
	return span{g.Data(), g.Index(b.X0, b.Y0, b.Z0), sx, sy}
}

// at returns the index of row (i, j)'s first point.
func (s span) at(i, j int) int { return s.i0 + i*s.sx + j*s.sy }

// row returns row (i, j)'s n values, nil for an absent operand.
func (s span) row(i, j, n int) []float64 {
	if s.data == nil {
		return nil
	}
	return s.data[s.at(i, j):][:n]
}

// holds reports whether every point of an nx x ny x n block, widened
// to the offsets [lo, hi] around it, lies inside s's slice.
func (s span) holds(nx, ny, n, lo, hi int) bool {
	return min(s.sx, s.sy) >= 0 && s.i0+lo >= 0 && s.at(nx-1, ny-1)+n-1+hi < len(s.data)
}

// avx is s for blockAVX2 over a block of ny rows of n points; the zero
// avxOperand for an absent operand.
func (s span) avx(ny, n int) avxOperand {
	if s.data == nil {
		return avxOperand{}
	}
	return avxOperand{&s.data[s.i0], 8 * (s.sy - n), 8 * (s.sx - ny*s.sy)}
}

// avxOperand is one slice's block for blockAVX2: the address of its
// first point, and the bytes its pointer steps from a row's end to the
// next row's start and from a plane's end to the next plane's start.
type avxOperand struct {
	p          *float64
	row, plane int
}

// rowSIMD selects blockAVX2 for the 12-tap stencil: it holds on amd64
// hosts with AVX2, and off amd64 the Go loop runs alone.
var rowSIMD = cpu.AVX2

// simd reports whether blockAVX2 runs the stencil for these taps.
func (lt *layoutTaps) simd() bool { return rowSIMD && len(lt.taps) == 12 }

// scratch returns how many values of z-row scratch a fused kernel's
// block needs for rows of n points: none where blockAVX2 runs it, one
// row on the Go path, which stages each row's stencil values.
func (lt *layoutTaps) scratch(n int) int {
	if lt.simd() {
		return 0
	}
	return n
}

// fusedBlock evaluates the stencil of in over an nx x ny x n block and
// stores ep applied to each value in out; a and p are ep's elementwise
// operands (see epilogue), each with its own layout. Every kernel in
// the package — serial, parallel and fused — funnels through this
// routine, so all of them produce bit-identical stencil values by
// construction. It checks the block's lowest and highest access in
// each slice it reads or writes once and panics before writing if one
// falls outside; then the 12-tap stencil runs the whole block in
// blockAVX2 where rowSIMD holds, and every other case runs stencilRow's
// Go loop and the epilogue's row loop row by row, with the same
// rounding sequence. row is at least lt.scratch(n) values of scratch.
//
//gpaw:hotpath
func fusedBlock(out, in, a, p span, nx, ny, n int, center float64, lt *layoutTaps, ep epilogue, row []float64) {
	if nx <= 0 || ny <= 0 || n <= 0 {
		return
	}
	if !in.holds(nx, ny, n, lt.minOff, lt.maxOff) || !out.holds(nx, ny, n, 0, 0) ||
		ep.readsA() && !a.holds(nx, ny, n, 0, 0) || ep.kind == epRecur && !p.holds(nx, ny, n, 0, 0) {
		panic("stencil: block reaches outside its slices")
	}
	if lt.simd() {
		blockAVX2(out.avx(ny, n), in.avx(ny, n), a.avx(ny, n), p.avx(ny, n), nx, ny, n, center, &lt.taps[0], ep)
		return
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			o, s0 := out.row(i, j, n), in.at(i, j)
			if ep.kind == epStore && !ep.addV {
				stencilRow(o, in.data, s0, n, center, lt.taps)
				continue
			}
			s := row[:n]
			stencilRow(s, in.data, s0, n, center, lt.taps)
			ep.row(o, s, in.data[s0:][:n], a.row(i, j, n), p.row(i, j, n))
		}
	}
}

// stencilRow evaluates the stencil along one contiguous z-row: out[k] =
// center*in[s0+k] + taps for k in [0, n). Every product is rounded
// before it is added (the conversions keep an FMA-capable architecture
// from fusing).
//
//gpaw:hotpath
func stencilRow(out, in []float64, s0, n int, center float64, taps []tap) {
	switch len(taps) {
	case 12:
		// The paper's 13-point operator, unrolled over one re-sliced row
		// per tap so the loop carries no bounds check: the centre
		// product, then three groups of four taps in tap order — the
		// rounding sequence blockAVX2 reproduces.
		c0, c1, c2, c3 := taps[0].c, taps[1].c, taps[2].c, taps[3].c
		c4, c5, c6, c7 := taps[4].c, taps[5].c, taps[6].c, taps[7].c
		c8, c9, c10, c11 := taps[8].c, taps[9].c, taps[10].c, taps[11].c
		out, x := out[:n], in[s0:][:n]
		x0, x1 := in[s0+taps[0].off:][:n], in[s0+taps[1].off:][:n]
		x2, x3 := in[s0+taps[2].off:][:n], in[s0+taps[3].off:][:n]
		x4, x5 := in[s0+taps[4].off:][:n], in[s0+taps[5].off:][:n]
		x6, x7 := in[s0+taps[6].off:][:n], in[s0+taps[7].off:][:n]
		x8, x9 := in[s0+taps[8].off:][:n], in[s0+taps[9].off:][:n]
		x10, x11 := in[s0+taps[10].off:][:n], in[s0+taps[11].off:][:n]
		// bce:begin
		for k := uint(0); k < uint(len(out)); k++ {
			v := float64(center * x[k])
			v += float64(c0*x0[k]) + float64(c1*x1[k]) + float64(c2*x2[k]) + float64(c3*x3[k])
			v += float64(c4*x4[k]) + float64(c5*x5[k]) + float64(c6*x6[k]) + float64(c7*x7[k])
			v += float64(c8*x8[k]) + float64(c9*x9[k]) + float64(c10*x10[k]) + float64(c11*x11[k])
			out[k] = v
		}
		// bce:end
	default:
		for k := 0; k < n; k++ {
			s := s0 + k
			v := float64(center * in[s])
			for _, tp := range taps {
				//lint:ignore detsumcheck rank-local stencil application in fixed tap order; this exact rounding sequence IS the bit-identity contract
				v += float64(tp.c * in[s+tp.off])
			}
			out[k] = v
		}
	}
}

// applyBlock computes dst = op(src) over one block. It is the innermost
// building block of both the plane-split and the cache-blocked
// traversals.
func (op *Operator) applyBlock(dst, src *grid.Grid, lt *layoutTaps, b Block) {
	op.block(dst, src, nil, nil, lt, epilogue{}, nil, b)
}

// ApplyPeriodicReference fills src's halos periodically and applies the
// operator. It is the sequential reference implementation the
// distributed engine is verified against, and corresponds to running
// GPAW on a single process.
func (op *Operator) ApplyPeriodicReference(dst, src *grid.Grid) {
	src.FillHalosPeriodic()
	op.Apply(dst, src)
}

// ApplyZeroReference fills src's halos with zeros (Dirichlet boundary)
// and applies the operator.
func (op *Operator) ApplyZeroReference(dst, src *grid.Grid) {
	src.FillHalosZero()
	op.Apply(dst, src)
}
