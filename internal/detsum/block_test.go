package detsum

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// hostBlockSIMD is whether this host runs the AVX2 bodies of the block
// kernel.
var hostBlockSIMD = blockSIMD

func blockBodyName(simd bool) string {
	if simd {
		return "simd"
	}
	return "scalar"
}

// blockBodies lists the bodies this host can run: the Go loops, and the
// AVX2 bodies where the host has AVX2.
func blockBodies() []bool {
	if hostBlockSIMD {
		return []bool{false, true}
	}
	return []bool{false}
}

// withBlockBody runs f with the block kernel's body selected by simd.
func withBlockBody(simd bool, f func()) {
	blockSIMD = simd
	defer func() { blockSIMD = hostBlockSIMD }()
	f()
}

// encodePairs encodes (x, y) term pairs as FuzzMulRowsMatchesAcc reads
// them.
func encodePairs(xs, ys []float64) []byte {
	out := make([]byte, 0, 16*len(xs))
	for i, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ys[i]))
	}
	return out
}

// spreadPairs returns n term pairs whose products spread over 2^±60, so
// that a block of them takes several levels.
func spreadPairs(n int, seed int64) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(61)-30)
		ys[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(61)-30)
	}
	return xs, ys
}

// FuzzMulRowsMatchesAcc holds Acc.MulRows, on every body this host
// runs, to Acc.AddMulSlice. The fuzz bytes are raw (x, y) bit-pattern
// pairs, repeated cyclically to up to ~2500 terms so that rows straddle
// a block's end; ctl seeds their cut into rows of 1-200 terms and how
// many times the pairs repeat (ctl = 0: once). At the end of the sweep
// both paths must leave the same spec bits (non-finite products are
// summed in term order on both), the same carry-normalized bins and the
// same Round bits.
func FuzzMulRowsMatchesAcc(f *testing.F) {
	const maxMant = 0x1.fffffffffffffp0 // a 53-bit mantissa of all ones
	snan := math.Float64frombits(0x7ff0000000000456)
	qnan := math.Float64frombits(0x7ff8000000000123)
	negZero := math.Copysign(0, -1)
	seeds := [][2][]float64{
		{{5e-324, 1e-310, negZero, 0, 2.2250738585072014e-308}, {1, -3, 1, negZero, 0.5}},
		{{1e-200, -1e-170, 3e-160}, {1e-120, 1e-150, -1e-160}}, // products underflow to subnormals and zero
		{{1e200, -1e200, 1e300, 1}, {1e200, 1e200, 1, 2}},      // +Inf, then -Inf: Inf-Inf
		{{qnan, 1, snan, 2}, {1, snan, 2, qnan}},               // NaN payloads in term order
		{{math.MaxFloat64, 1, -math.MaxFloat64}, {1, 1e-300, 1}},
		{repeated(maxMant, 1024), repeated(1, 1024)},
		{repeated(-maxMant, 1025), repeated(1, 1025)},
		{append(repeated(maxMant, 1025), repeated(-maxMant, 1025)...), repeated(maxMant, 2050)},
		// 1e300 and 1e-300 in one block: four levels, then AddSlice.
		{{1e300, 1e-300, -3.7e299, 1.1e-299}, {1, 1, 1.3, -0.7}},
		// Subnormal products only: one level, then σ would be subnormal.
		{{1e-160, -3e-162, 7e-161, 5e-324}, {1e-160, 1e-161, -2e-163, 3}},
		// Products near MaxFloat64: σ would be above 2^1023.
		{{math.MaxFloat64, 1.5e308, -1e308, 1}, {1, 1, 1, 1e-300}},
		{{negZero, 0, negZero, negZero}, {1, -1, negZero, 0}}, // -0 products
		{{qnan, snan}, {snan, qnan}},                          // NaN*NaN: x's payload
	}
	ctls := make([]uint64, len(seeds), len(seeds)+4)
	for i := range seeds {
		ctls[i] = uint64(i)
	}
	// Sweeps of one term short of a block, one block and one term past.
	for _, n := range []int{blockLen - 1, blockLen, blockLen + 1} {
		xs, ys := spreadPairs(n, int64(n))
		seeds = append(seeds, [2][]float64{xs, ys})
		ctls = append(ctls, 0)
	}
	// One block of products -(1 - 2^-45): σ + p falls below σ, so each
	// q keeps the finest bit, 2^(k-53), and a sum in term order stays
	// exact only while 2^M >= 2n.
	seeds = append(seeds, [2][]float64{{-(1 - 0x1p-45)}, {1}})
	ctls = append(ctls, blockLen-1) // one pair, repeated to blockLen terms
	for i, p := range seeds {
		f.Add(encodePairs(p[0], p[1]), ctls[i])
	}
	f.Fuzz(func(t *testing.T, data []byte, ctl uint64) {
		pairs := len(data) / 16
		if pairs == 0 {
			return
		}
		terms := pairs * (1 + int(ctl%uint64(1+2500/pairs)))
		xs, ys := make([]float64, terms), make([]float64, terms)
		for i := range xs {
			p := 16 * (i % pairs)
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
			ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[p+8:]))
		}
		rng := rand.New(rand.NewSource(int64(ctl)))
		cuts := []int{0}
		for lo := 0; lo < terms; {
			lo = min(lo+1+rng.Intn(200), terms)
			cuts = append(cuts, lo)
		}
		row := func(_, j int) ([]float64, []float64) {
			lo, hi := cuts[j], cuts[j+1]
			return xs[lo:hi], ys[lo:hi]
		}
		var viaAcc Acc
		for j := range len(cuts) - 1 {
			viaAcc.AddMulSlice(row(0, j))
		}
		for _, simd := range blockBodies() {
			var viaBlock Acc
			withBlockBody(simd, func() { viaBlock.MulRows(1, len(cuts)-1, row) })
			body := blockBodyName(simd)
			if g, w := math.Float64bits(viaBlock.spec), math.Float64bits(viaAcc.spec); g != w {
				t.Fatalf("%s: spec %x through MulRows, %x through AddMulSlice", body, g, w)
			}
			if normalized(&viaBlock) != normalized(&viaAcc) {
				t.Fatalf("%s: carried bins differ from AddMulSlice's", body)
			}
			if g, w := math.Float64bits(viaBlock.Round()), math.Float64bits(viaAcc.Round()); g != w {
				t.Fatalf("%s: Round %x through MulRows, %x through AddMulSlice", body, g, w)
			}
		}
	})
}

// blockValue returns a random float64 for the body differential:
// ordinary values over a wide exponent range, ±0, ±Inf, quiet and
// signalling NaNs with random payloads, subnormals and values near
// MaxFloat64.
func blockValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	case 1:
		return math.Inf(rng.Intn(2)*2 - 1)
	case 2:
		// Any exponent-all-ones pattern with a nonzero mantissa: quiet
		// or signalling, either sign, random payload.
		return math.Float64frombits(0x7ff0000000000000 | rng.Uint64()&0x800fffffffffffff | 1)
	case 3:
		return (rng.Float64() - 0.5) * 1e4 * math.SmallestNonzeroFloat64
	case 4:
		return (rng.Float64() - 0.5) * math.MaxFloat64
	default:
		return math.Ldexp(rng.NormFloat64(), rng.Intn(400)-200)
	}
}

// TestBlockBodiesMatchGo holds the AVX2 bodies of the block kernel to
// their Go loops, bit for bit. products: every length 1-67 and a whole
// block, on blockValue's mix, with whole rows of NaN*NaN products
// (each product must keep x's payload); the stored products and the
// maximum over m's lanes must agree. extract: every level a flush would run,
// on padded blocks of 8-512 finite products spread over up to 2^±80
// around their largest (subnormals and ±0 included), and at the edges
// of σ's range; the residuals, Σq and the residuals' OR must agree.
func TestBlockBodiesMatchGo(t *testing.T) {
	t.Logf("dispatching body: %s", blockBodyName(hostBlockSIMD))
	if !hostBlockSIMD {
		t.Skip("host has no AVX2 with OS-enabled YMM state: the SIMD bodies cannot run")
	}
	rng := rand.New(rand.NewSource(5))
	nan := func() float64 {
		return math.Float64frombits(0x7ff0000000000000 | rng.Uint64()&0x800fffffffffffff | 1)
	}
	lengths := make([]int, 0, 68)
	for n := 1; n < 68; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, blockLen)
	for trial := range 20 {
		for _, n := range lengths {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				if trial%4 == 0 {
					x[i], y[i] = nan(), nan()
				} else {
					x[i], y[i] = blockValue(rng), blockValue(rng)
				}
			}
			got, want := make([]float64, n), make([]float64, n)
			var gl, wl [4]uint64
			productsAVX2(&got[0], &x[0], &y[0], n, &gl)
			productsGo(want, x, y, &wl)
			gm, wm := max(gl[0], gl[1], gl[2], gl[3]), max(wl[0], wl[1], wl[2], wl[3])
			for i := range got {
				if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
					t.Fatalf("products, n=%d, term %d: %x * %x = %x in AVX2, %x in Go",
						n, i, math.Float64bits(x[i]), math.Float64bits(y[i]), g, w)
				}
			}
			if gm != wm {
				t.Fatalf("products, n=%d: maximum %x in AVX2, %x in Go", n, gm, wm)
			}
		}
	}

	level := func(what string, p []float64, k int) {
		t.Helper()
		got := append([]float64(nil), p...)
		for range extractLevels {
			if k > 1023 || k < -1022 {
				return
			}
			sigma := math.Float64frombits(uint64(k+1023) << 52)
			gs, gb := extractAVX2(&got[0], len(got), sigma)
			ws, wb := extractGo(p, sigma)
			if math.Float64bits(gs) != math.Float64bits(ws) || gb != wb {
				t.Fatalf("%s, σ=2^%d: Σq %x, bits %x in AVX2; %x, %x in Go",
					what, k, math.Float64bits(gs), gb, math.Float64bits(ws), wb)
			}
			for i := range got {
				if g, w := math.Float64bits(got[i]), math.Float64bits(p[i]); g != w {
					t.Fatalf("%s, σ=2^%d, term %d: residual %x in AVX2, %x in Go", what, k, i, g, w)
				}
			}
			k -= 53 - extractBits
		}
	}
	for trial := range 200 {
		n := 8 * (1 + rng.Intn(blockLen/8))
		// Every |p| < 2^top; the first two trials put σ at the top of
		// its range (2^1023) and at the bottom (2^-1022, the second
		// level).
		top := []int{1013, -989}[min(trial, 1)]
		if trial > 1 {
			top = rng.Intn(2087) - 1074
		}
		p := make([]float64, n)
		var m uint64
		for i := range p {
			switch rng.Intn(10) {
			case 0:
				p[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			case 1:
				p[i] = (rng.Float64() - 0.5) * 1e4 * math.SmallestNonzeroFloat64
			default:
				p[i] = math.Ldexp(rng.Float64()*2-1, top-rng.Intn(80))
			}
			if i == 0 && trial < 2 {
				p[i] = math.Ldexp(1.5, top-1)
			}
			m = max(m, math.Float64bits(p[i])&^(1<<63))
		}
		level("block", p, int(m>>52)-1022+extractBits)
	}
}

// TestMulRows: MulRows visits its rows plane by plane, in order, puts
// every sweep through a block — its unit products are whole at the
// first level, so the Acc sees one deposit, Σq, per block of 512
// products — and allocates nothing, on short sweeps as on long ones.
func TestMulRows(t *testing.T) {
	for _, tc := range []struct {
		nx, ny, n, deposits int
	}{
		{1, 1, 1, 1},
		{3, 3, 3, 1},    // a 3^3 coarse level
		{1, 1, 512, 1},  // one whole block
		{1, 1, 513, 2},  // one term past it
		{4, 8, 32, 2},   // 1024 terms, two blocks
		{1, 2, 1536, 6}, // flushed mid-row five times, then at the end
		{0, 4, 8, 0},    // an empty sweep flushes nothing
	} {
		var a Acc
		var seen []int
		row := func(i, j int) ([]float64, []float64) {
			seen = append(seen, i*tc.ny+j)
			x := repeated(1, tc.n)
			return x, x
		}
		a.MulRows(tc.nx, tc.ny, row)
		terms := tc.nx * tc.ny * tc.n
		if a.n != tc.deposits {
			t.Errorf("%dx%dx%d: %d deposits, want %d", tc.nx, tc.ny, tc.n, a.n, tc.deposits)
		}
		if got := a.Round(); got != float64(terms) {
			t.Errorf("%dx%dx%d: sum %g, want %d", tc.nx, tc.ny, tc.n, got, terms)
		}
		for k, r := range seen {
			if r != k {
				t.Fatalf("%dx%dx%d: row %d visited at step %d", tc.nx, tc.ny, tc.n, r, k)
			}
		}
	}
	ones := repeated(1, 64)
	var a Acc
	for _, nx := range []int{16, 1} { // 1024 and 64 products
		if allocs := testing.AllocsPerRun(10, func() {
			a.MulRows(nx, 1, func(int, int) ([]float64, []float64) { return ones, ones })
		}); allocs != 0 {
			t.Errorf("MulRows over %d products allocates %g times", nx*64, allocs)
		}
	}
}
