package detsum

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// encodePairs encodes (x, y) term pairs as FuzzFrontEndMatchesAcc reads
// them.
func encodePairs(xs, ys []float64) []byte {
	out := make([]byte, 0, 16*len(xs))
	for i, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ys[i]))
	}
	return out
}

// FuzzFrontEndMatchesAcc holds the front end to Acc.AddMulSlice. The
// fuzz bytes are raw (x, y) bit-pattern pairs, repeated cyclically to
// up to ~2500 terms so that rows straddle a drain; ctl seeds their cut
// into rows of 1-200 terms. Row by row, both paths must leave the same
// spec bits (non-finite products are summed in term order on both);
// after the last row, the front drained, the same carry-normalized
// bins and the same Round bits.
func FuzzFrontEndMatchesAcc(f *testing.F) {
	const maxMant = 0x1.fffffffffffffp0 // a 53-bit mantissa of all ones
	snan := math.Float64frombits(0x7ff0000000000456)
	qnan := math.Float64frombits(0x7ff8000000000123)
	negZero := math.Copysign(0, -1)
	for i, p := range [][2][]float64{
		{{5e-324, 1e-310, negZero, 0, 2.2250738585072014e-308}, {1, -3, 1, negZero, 0.5}},
		{{1e-200, -1e-170, 3e-160}, {1e-120, 1e-150, -1e-160}}, // products underflow to subnormals and zero
		{{1e200, -1e200, 1e300, 1}, {1e200, 1e200, 1, 2}},      // +Inf, then -Inf: Inf-Inf
		{{qnan, 1, snan, 2}, {1, snan, 2, qnan}},               // NaN payloads in term order
		{{math.MaxFloat64, 1, -math.MaxFloat64}, {1, 1e-300, 1}},
		{repeated(maxMant, 1024), repeated(1, 1024)},
		{repeated(-maxMant, 1025), repeated(1, 1025)},
		{append(repeated(maxMant, 1025), repeated(-maxMant, 1025)...), repeated(maxMant, 2050)},
	} {
		f.Add(encodePairs(p[0], p[1]), uint64(i))
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
		var fr front
		var viaFront, viaAcc Acc
		for lo := 0; lo < terms; {
			hi := min(lo+1+rng.Intn(200), terms)
			fr.addMulSlice(&viaFront, xs[lo:hi], ys[lo:hi])
			viaAcc.AddMulSlice(xs[lo:hi], ys[lo:hi])
			if g, w := math.Float64bits(viaFront.spec), math.Float64bits(viaAcc.spec); g != w {
				t.Fatalf("terms [%d, %d): spec %x through the front, %x through AddMulSlice", lo, hi, g, w)
			}
			lo = hi
		}
		fr.drain(&viaFront)
		if fr.n != 0 || fr.blocks != 0 || fr.chunk != ([numExps]int64{}) {
			t.Fatalf("drain left the front non-empty")
		}
		if normalized(&viaFront) != normalized(&viaAcc) {
			t.Fatalf("carried bins differ from AddMulSlice's")
		}
		if g, w := math.Float64bits(viaFront.Round()), math.Float64bits(viaAcc.Round()); g != w {
			t.Fatalf("Round %x through the front, %x through AddMulSlice", g, w)
		}
	})
}

// TestMulRows: MulRows visits its rows plane by plane, in order, puts
// every sweep through a front — its unit products all land in one
// chunk, so the Acc sees one deposit per drain, at every 1024 terms and
// at the end — and allocates nothing, on short sweeps as on long ones.
func TestMulRows(t *testing.T) {
	for _, tc := range []struct {
		nx, ny, n, deposits int
	}{
		{1, 1, 1, 1},
		{3, 3, 3, 1},    // a 3^3 coarse level
		{4, 8, 32, 1},   // 1024 terms, one drain window
		{1, 1, 1025, 2}, // one term past the window
		{1, 2, 1536, 3}, // drained mid-row twice, then at the end
		{0, 4, 8, 0},    // an empty sweep drains nothing
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
