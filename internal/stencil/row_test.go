package stencil

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/detsum"
	"repro/internal/grid"
)

// hostRowSIMD is whether this host runs the AVX2 row body.
var hostRowSIMD = rowSIMD

func rowBodyName(simd bool) string {
	if simd {
		return "simd"
	}
	return "scalar"
}

// setRowSIMD selects the 12-tap row body for the rest of tb, skipping
// tb when the SIMD body is asked for on a host without AVX2.
func setRowSIMD(tb testing.TB, simd bool) {
	tb.Helper()
	if simd && !hostRowSIMD {
		tb.Skip("host has no AVX2 with OS-enabled YMM state: the SIMD row body cannot run")
	}
	rowSIMD = simd
	tb.Cleanup(func() { rowSIMD = hostRowSIMD })
}

// taps returns op's taps for a layout with strides (sx, sy, 1).
func (op *Operator) taps(sx, sy int) []tap { return op.layout(sx, sy).taps }

// TestRowBodySweepsMatch runs every kernel with each stencil body, over
// the Full, Interior and Shell views, and compares the results bit for
// bit: on 24^3, on a 5x7x13 grid whose rows of 13 are three vectors
// and a one-point tail, on the 12x6x6 local block of the 64-rank SCF
// workload (rows of 6: one vector and a two-point tail) and on a
// 3x40x10 grid that ApplyParallel splits into two y tiles.
func TestRowBodySweepsMatch(t *testing.T) {
	if !hostRowSIMD {
		t.Skip("host has no AVX2 with OS-enabled YMM state: only the scalar row body runs")
	}
	t.Log("comparing the AVX2 body with the scalar loop")
	p := NewPool(2)
	defer p.Close()
	for _, e := range [][3]int{{24, 24, 24}, {5, 7, 13}, {12, 6, 6}, {3, 40, 10}} {
		field := func(seed int) *grid.Grid {
			g := grid.New(e[0], e[1], e[2], 2)
			g.FillFunc(func(i, j, k int) float64 { return math.Sin(float64(seed + 3*i + 5*j + 7*k)) })
			g.FillHalosPeriodic()
			return g
		}
		src, aux, prev := field(1), field(2), field(3)
		op := Laplacian(2, 0.4)
		// run applies every kernel over every view with one body and
		// returns each output grid's values and each reduction, keyed
		// by view and kernel.
		run := func(simd bool) (outs map[string][]float64, sums map[string]float64) {
			rowSIMD = simd
			defer func() { rowSIMD = hostRowSIMD }()
			outs, sums = map[string][]float64{}, map[string]float64{}
			for r, view := range []string{"Full", "Interior", "Shell"} {
				v := op.Over(Region(r))
				out := func(kernel string) *grid.Grid {
					g := grid.New(e[0], e[1], e[2], 2)
					outs[view+" "+kernel] = g.Data()
					return g
				}
				v.Apply(out("Apply"), src)
				v.ApplyParallel(p, out("ApplyParallel"), src)
				v.ApplySmooth(p, out("ApplySmooth"), src, aux, 0.11)
				v.ApplyRecurrence(p, out("ApplyRecurrence"), src, aux, prev, 0.7, -0.2, 0.3)
				var dot, res detsum.Acc
				v.ApplyDotAcc(p, out("ApplyDotAcc"), src, &dot)
				v.ApplyResidualAcc(p, out("ApplyResidualAcc"), aux, src, &res)
				sums[view+" ApplyDotAcc"], sums[view+" ApplyResidualAcc"] = dot.Round(), res.Round()
			}
			return outs, sums
		}
		simdOuts, simdSums := run(true)
		scalarOuts, scalarSums := run(false)
		for name, a := range simdOuts {
			b := scalarOuts[name]
			for k := range a {
				if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
					t.Fatalf("%v %s: value %d is %g with the SIMD body, %g scalar", e, name, k, a[k], b[k])
				}
			}
		}
		for name, a := range simdSums {
			if b := scalarSums[name]; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%v %s: sum %g with the SIMD body, %g scalar", e, name, a, b)
			}
		}
	}
}

// blockLayout is where a block lies in a source and a destination
// slice: their lengths, the block's first source and destination
// indices and both stride pairs.
type blockLayout struct {
	lin, lout, s0, d0, isx, isy, osx, osy int
}

// newBlockLayout lays out the whole interior of an nx x ny x n grid
// with halo hin as the source and with halo hout as the destination.
func newBlockLayout(nx, ny, n, hin, hout int) blockLayout {
	isy, osy := n+2*hin, n+2*hout
	isx, osx := (ny+2*hin)*isy, (ny+2*hout)*osy
	return blockLayout{
		lin: (nx + 2*hin) * isx, lout: (nx + 2*hout) * osx,
		s0: hin * (isx + isy + 1), d0: hout * (osx + osy + 1),
		isx: isx, isy: isy, osx: osx, osy: osy,
	}
}

// storeBlock runs fusedBlock with the store-only epilogue over the
// nx x ny x n block that l places in in and out.
func storeBlock(out, in []float64, l blockLayout, nx, ny, n int, center float64, lt *layoutTaps) {
	fusedBlock(span{out, l.d0, l.osx, l.osy}, span{in, l.s0, l.isx, l.isy}, span{}, span{},
		nx, ny, n, center, lt, epilogue{}, nil)
}

// bodyCheck draws random operators and inputs from rng and holds the
// block entry to stencilRow's Go loop run row by row, bit for bit.
// Coefficients are random, a few of them ±0, ±Inf, NaN or subnormal;
// inputs mix ordinary values, ±0, ±Inf, quiet and signalling NaNs with
// random payloads, and subnormals. Every destination value outside the
// block must keep its sentinel.
type bodyCheck struct {
	t   *testing.T
	rng *rand.Rand
}

func (c bodyCheck) value() float64 {
	switch c.rng.IntN(12) {
	case 0:
		return math.Copysign(0, float64(c.rng.IntN(2))-0.5)
	case 1:
		return math.Inf(c.rng.IntN(2)*2 - 1)
	case 2:
		// Any exponent-all-ones pattern with a nonzero mantissa:
		// quiet or signalling, either sign, random payload.
		return math.Float64frombits(0x7ff0000000000000 | c.rng.Uint64()&0x800fffffffffffff | 1)
	case 3:
		return (c.rng.Float64() - 0.5) * 1e4 * math.SmallestNonzeroFloat64
	default:
		return (c.rng.Float64() - 0.5) * math.Pow(10, float64(c.rng.IntN(9)-4))
	}
}

func (c bodyCheck) coeff() float64 {
	if c.rng.IntN(40) == 0 {
		return c.value() // rarely ±Inf, NaN or subnormal; a zero drops its tap
	}
	v := (c.rng.Float64() + 0.25) * math.Pow(10, float64(c.rng.IntN(7)-3))
	if c.rng.IntN(2) == 0 {
		v = -v
	}
	return v
}

// operator returns a radius-2 operator with random coefficients.
func (c bodyCheck) operator() *Operator {
	coeffs := func() []float64 { return []float64{c.coeff(), c.coeff(), c.coeff(), c.coeff(), c.coeff()} }
	return NewOperator(2, coeffs(), coeffs(), coeffs())
}

// block checks op over the nx x ny x n block that l places.
func (c bodyCheck) block(op *Operator, l blockLayout, nx, ny, n int) {
	c.t.Helper()
	const sentinel = 0x7ff8dead0000beef
	lt := op.layout(l.isx, l.isy)
	in := make([]float64, l.lin)
	for i := range in {
		in[i] = c.value()
	}
	got, want := make([]float64, l.lout), make([]float64, l.lout)
	for i := range got {
		got[i], want[i] = math.Float64frombits(sentinel), math.Float64frombits(sentinel)
	}
	storeBlock(got, in, l, nx, ny, n, op.Center, lt)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			d := l.d0 + i*l.osx + j*l.osy
			stencilRow(want[d:d+n], in, l.s0+i*l.isx+j*l.isy, n, op.Center, lt.taps)
		}
	}
	for k := range want {
		if g, w := math.Float64bits(got[k]), math.Float64bits(want[k]); g != w {
			c.t.Fatalf("%d taps, %dx%dx%d block, strides (%d, %d) -> (%d, %d): out[%d] = %#x, scalar %#x",
				len(lt.taps), nx, ny, n, l.isx, l.isy, l.osx, l.osy, k, g, w)
		}
	}
}

// TestRowBodyMatchesScalar holds the block entry on single rows to
// stencilRow's Go loop (see bodyCheck) at every row length 0-67 (vector
// bodies with every tail, and rows too short for one vector), on
// source strides that need not come from any grid.
func TestRowBodyMatchesScalar(t *testing.T) {
	t.Logf("dispatching body: %s", rowBodyName(hostRowSIMD))
	c := bodyCheck{t, rand.New(rand.NewPCG(3, 4))}
	for trial := 0; trial < 40; trial++ {
		op := c.operator()
		sy := 1 + c.rng.IntN(80)
		sx := sy * (1 + c.rng.IntN(40))
		for n := 0; n < 68; n++ {
			s0 := 2*sx + c.rng.IntN(5)
			c.block(op, blockLayout{lin: s0 + n + 2*sx, lout: n, s0: s0, isx: sx, isy: sy}, 1, 1, n)
		}
	}
}

// TestBlockBodyMatchesScalar holds the block entry to stencilRow's Go
// loop (see bodyCheck) on every block of 1-4 planes of 1-4 rows of 0-67
// points, with source and destination halos that differ (so do their
// strides).
func TestBlockBodyMatchesScalar(t *testing.T) {
	t.Logf("dispatching body: %s", rowBodyName(hostRowSIMD))
	c := bodyCheck{t, rand.New(rand.NewPCG(5, 6))}
	for trial := 0; trial < 3; trial++ {
		op := c.operator()
		hin, hout := 2+c.rng.IntN(2), c.rng.IntN(4)
		for nx := 1; nx <= 4; nx++ {
			for ny := 1; ny <= 4; ny++ {
				for n := 0; n < 68; n++ {
					c.block(op, newBlockLayout(nx, ny, n, hin, hout), nx, ny, n)
				}
			}
		}
	}
}

// TestBlockBoundsPanics: a block whose lowest or highest read, or
// lowest or highest write, falls outside its slice panics in Go before
// either body runs, leaving the destination untouched; the same block
// exactly fitting its slices runs.
func TestBlockBoundsPanics(t *testing.T) {
	for _, simd := range []bool{true, false} {
		t.Run(rowBodyName(simd), func(t *testing.T) {
			setRowSIMD(t, simd)
			op := Laplacian(2, 0.5)
			const nx, ny, n = 3, 2, 7
			l := newBlockLayout(nx, ny, n, 2, 1)
			lt := op.layout(l.isx, l.isy)
			// Trim in to the block's reach: reads run from s0+minOff to
			// s0+span+maxOff, writes from d0 to d0+wspan.
			span := (nx-1)*l.isx + (ny-1)*l.isy + n - 1
			wspan := (nx-1)*l.osx + (ny-1)*l.osy + n - 1
			full := make([]float64, l.lin)
			for i := range full {
				full[i] = float64(i % 17)
			}
			in := full[l.s0+lt.minOff : l.s0+span+lt.maxOff+1]
			s0 := -lt.minOff
			for _, c := range []struct {
				name       string
				s0, d0     int
				trimIn     int
				trimOut    int
				wantsPanic bool
			}{
				{"exact fit", s0, 0, 0, 0, false},
				{"lowest read", s0 - 1, 0, 0, 0, true},
				{"highest read", s0, 0, 1, 0, true},
				{"lowest write", s0, -1, 0, 0, true},
				{"highest write", s0, 0, 0, 1, true},
			} {
				out := make([]float64, wspan+1)
				for i := range out {
					out[i] = -1
				}
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					at := l
					at.s0, at.d0 = c.s0, c.d0
					storeBlock(out[:len(out)-c.trimOut], in[:len(in)-c.trimIn], at, nx, ny, n, op.Center, lt)
					return false
				}()
				if panicked != c.wantsPanic {
					t.Fatalf("%s: panicked = %v, want %v", c.name, panicked, c.wantsPanic)
				}
				if !c.wantsPanic {
					continue
				}
				for i, v := range out {
					if v != -1 {
						t.Fatalf("%s: out[%d] = %g written before the panic", c.name, i, v)
					}
				}
			}
		})
	}
}

// TestFusedBodyMatchesScalar holds every fused kernel's block, run by
// blockAVX2 with its epilogue in registers, to the Go path (stencilRow
// into scratch, then the epilogue's row loop), bit for bit: the plain
// store, the residual, the smoother and every step case with and
// without v and prev, with alpha, beta, gamma and c drawn from 0, -0, 1
// and random values, on blocks of 1-3 planes of 1-3 rows of 0-13
// points (every n % 4 and rows too short for a vector). The operands'
// halos are 0 or 2 independently of the source's and the destination's,
// prev is the destination and r is b in some blocks, and the values mix
// ordinary numbers, ±0, ±Inf, quiet and signalling NaNs with random
// payloads, and subnormals. Every destination value outside the block
// must keep its sentinel. The assembly copies the operand order of the
// normally compiled Go loops; under the race detector, whose build
// orders some operands differently, two NaNs agree whatever their
// payloads.
func TestFusedBodyMatchesScalar(t *testing.T) {
	t.Logf("dispatching body: %s", rowBodyName(hostRowSIMD))
	rng := rand.New(rand.NewPCG(7, 8))
	value := func() float64 {
		switch rng.IntN(12) {
		case 0:
			return math.Copysign(0, float64(rng.IntN(2))-0.5)
		case 1:
			return math.Inf(rng.IntN(2)*2 - 1)
		case 2:
			return math.Float64frombits(0x7ff0000000000000 | rng.Uint64()&0x800fffffffffffff | 1)
		case 3:
			return (rng.Float64() - 0.5) * 1e4 * math.SmallestNonzeroFloat64
		default:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(9)-4))
		}
	}
	constant := func(i int) float64 {
		return [...]float64{0, math.Copysign(0, -1), 1, (rng.Float64() - 0.5) * 4}[i]
	}
	// The epilogues: the plain store, the residual, the smoother for
	// each c, and ApplyRecurrence's for every (v, prev) and every alpha
	// and beta, which selects the step case.
	type variant struct {
		name string
		ep   epilogue
	}
	variants := []variant{{"store", epilogue{}}, {"residual", epilogue{kind: epResidual}}}
	for c := range 4 {
		variants = append(variants, variant{fmt.Sprintf("smooth c#%d", c), epilogue{kind: epSmooth, alpha: constant(c)}})
	}
	for _, addV := range []bool{false, true} {
		for _, prev := range []bool{false, true} {
			for ia := range 4 {
				for ib := range 4 {
					ep := stepEpilogue(addV, prev, constant(ia), constant(ib), constant(rng.IntN(4)))
					variants = append(variants, variant{fmt.Sprintf("step kind %d v=%v prev=%v alpha#%d beta#%d", ep.kind, addV, prev, ia, ib), ep})
				}
			}
		}
	}
	kinds := map[int]bool{}
	for _, v := range variants {
		kinds[v.ep.kind] = true
	}
	if len(kinds) != epRecur+1 {
		t.Fatalf("variants cover %d epilogue kinds, want %d", len(kinds), epRecur+1)
	}
	op := Laplacian(2, 0.7)
	const sentinel = 0x7ff8dead0000beef
	fill := func(n int, sentinels bool) []float64 {
		s := make([]float64, n)
		for i := range s {
			if sentinels {
				s[i] = math.Float64frombits(sentinel)
			} else {
				s[i] = value()
			}
		}
		return s
	}
	for _, v := range variants {
		for nx := 1; nx <= 3; nx++ {
			for ny := 1; ny <= 3; ny++ {
				for n := 0; n < 14; n++ {
					// The source's halo covers the stencil; the
					// destination's and each operand's are 0 or 2.
					l := newBlockLayout(nx, ny, n, 2+rng.IntN(2), 2*rng.IntN(2))
					la, lp := newBlockLayout(nx, ny, n, 2, 2*rng.IntN(2)), newBlockLayout(nx, ny, n, 2, 2*rng.IntN(2))
					lt := op.layout(l.isx, l.isy)
					in, a, p := fill(l.lin, false), fill(la.lout, false), fill(lp.lout, false)
					out := fill(l.lout, true)
					aliased := rng.IntN(4) == 0 && (v.ep.kind == epResidual || v.ep.kind == epRecur)
					if aliased {
						// r is b, or prev is dst: the operand's values
						// start in the destination's block.
						for i := range nx {
							for j := range ny {
								copy(out[l.d0+i*l.osx+j*l.osy:][:n], fill(n, false))
							}
						}
					}
					run := func(simd bool) []float64 {
						rowSIMD = simd
						defer func() { rowSIMD = hostRowSIMD }()
						o := append([]float64(nil), out...)
						os := span{o, l.d0, l.osx, l.osy}
						as, ps := span{a, la.d0, la.osx, la.osy}, span{p, lp.d0, lp.osx, lp.osy}
						switch {
						case aliased && v.ep.kind == epResidual:
							as = os
						case aliased:
							ps = os
						}
						fusedBlock(os, span{in, l.s0, l.isx, l.isy}, as, ps, nx, ny, n, op.Center, lt, v.ep, make([]float64, n))
						return o
					}
					got, want := run(hostRowSIMD), run(false)
					for k := range want {
						if raceBuild && math.IsNaN(got[k]) && math.IsNaN(want[k]) {
							continue
						}
						if g, w := math.Float64bits(got[k]), math.Float64bits(want[k]); g != w {
							t.Fatalf("%s, %dx%dx%d block, aliased %v: out[%d] = %#x, scalar %#x",
								v.name, nx, ny, n, aliased, k, g, w)
						}
					}
				}
			}
		}
	}
}
