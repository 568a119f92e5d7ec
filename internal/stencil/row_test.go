package stencil

import (
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

// TestRowBodyMatchesScalar holds the dispatching stencilRow to the Go
// loop alone, bit for bit, at every row length 0-67 (vector bodies
// with every tail, and rows too short for one vector), on random
// layouts and coefficients, with inputs (and a few coefficients)
// mixing ordinary values, ±0, ±Inf, quiet and signalling NaNs with
// random payloads, and subnormals.
func TestRowBodyMatchesScalar(t *testing.T) {
	t.Logf("dispatching body: %s", rowBodyName(hostRowSIMD))
	rng := rand.New(rand.NewPCG(3, 4))
	value := func() float64 {
		switch rng.IntN(12) {
		case 0:
			return math.Copysign(0, float64(rng.IntN(2))-0.5)
		case 1:
			return math.Inf(rng.IntN(2)*2 - 1)
		case 2:
			// Any exponent-all-ones pattern with a nonzero mantissa:
			// quiet or signalling, either sign, random payload.
			return math.Float64frombits(0x7ff0000000000000 | rng.Uint64()&0x800fffffffffffff | 1)
		case 3:
			return (rng.Float64() - 0.5) * 1e4 * math.SmallestNonzeroFloat64
		default:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(9)-4))
		}
	}
	coeff := func() float64 {
		if rng.IntN(40) == 0 {
			return value() // rarely ±Inf, NaN or subnormal; a zero drops its tap
		}
		c := (rng.Float64() + 0.25) * math.Pow(10, float64(rng.IntN(7)-3))
		if rng.IntN(2) == 0 {
			c = -c
		}
		return c
	}
	coeffs := func() []float64 { return []float64{coeff(), coeff(), coeff(), coeff(), coeff()} }
	for trial := 0; trial < 40; trial++ {
		op := NewOperator(2, coeffs(), coeffs(), coeffs())
		sy := 1 + rng.IntN(80)
		sx := sy * (1 + rng.IntN(40))
		taps := op.taps(sx, sy)
		for n := 0; n < 68; n++ {
			s0 := 2*sx + rng.IntN(5)
			in := make([]float64, s0+n+2*sx)
			for i := range in {
				in[i] = value()
			}
			got, want := make([]float64, n), make([]float64, n)
			stencilRow(got, in, s0, n, op.Center, taps)
			rowSIMD = false
			stencilRow(want, in, s0, n, op.Center, taps)
			rowSIMD = hostRowSIMD
			for k := range want {
				if g, w := math.Float64bits(got[k]), math.Float64bits(want[k]); g != w {
					t.Fatalf("strides (%d, %d) n=%d: out[%d] = %#x, scalar %#x", sx, sy, n, k, g, w)
				}
			}
		}
	}
}

// TestRowBodySweepsMatch runs every kernel that calls stencilRow with
// each row body and compares the results bit for bit, on 24^3 and on a
// 5x7x13 grid whose rows of 13 are three vectors and a one-point tail.
func TestRowBodySweepsMatch(t *testing.T) {
	if !hostRowSIMD {
		t.Skip("host has no AVX2 with OS-enabled YMM state: only the scalar row body runs")
	}
	t.Log("comparing the AVX2 row body with the scalar loop")
	p := NewPool(2)
	defer p.Close()
	for _, e := range [][3]int{{24, 24, 24}, {5, 7, 13}} {
		field := func(seed int) *grid.Grid {
			g := grid.New(e[0], e[1], e[2], 2)
			g.FillFunc(func(i, j, k int) float64 { return math.Sin(float64(seed + 3*i + 5*j + 7*k)) })
			g.FillHalosPeriodic()
			return g
		}
		src, aux, prev := field(1), field(2), field(3)
		op := Laplacian(2, 0.4)
		// run applies every kernel with one row body and returns each
		// output grid and the two reductions.
		run := func(simd bool) (outs []*grid.Grid, sums []float64) {
			rowSIMD = simd
			defer func() { rowSIMD = hostRowSIMD }()
			out := func() *grid.Grid { g := grid.New(e[0], e[1], e[2], 2); outs = append(outs, g); return g }
			op.Apply(out(), src)
			op.ApplySmooth(p, out(), src, aux, 0.11)
			op.ApplyRecurrence(p, out(), src, aux, prev, 0.7, -0.2, 0.3)
			var dot, res detsum.Acc
			op.ApplyDotAcc(p, out(), src, &dot)
			op.ApplyResidualAcc(p, out(), aux, src, &res)
			return outs, []float64{dot.Round(), res.Round()}
		}
		simdOuts, simdSums := run(true)
		scalarOuts, scalarSums := run(false)
		names := []string{"Apply", "ApplySmooth", "ApplyRecurrence", "ApplyDotAcc", "ApplyResidualAcc"}
		for i, name := range names {
			a, b := simdOuts[i].Data(), scalarOuts[i].Data()
			for k := range a {
				if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
					t.Fatalf("%v %s: value %d is %g with the SIMD body, %g scalar", e, name, k, a[k], b[k])
				}
			}
		}
		for i, name := range names[3:] {
			if math.Float64bits(simdSums[i]) != math.Float64bits(scalarSums[i]) {
				t.Fatalf("%v %s: sum %g with the SIMD body, %g scalar", e, name, simdSums[i], scalarSums[i])
			}
		}
	}
}
