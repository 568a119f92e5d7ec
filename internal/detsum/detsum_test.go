package detsum

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refAcc is the accumulator this package shipped before the integer
// deposit: every value is split into exact 32-bit chunks with math.Trunc
// and accumulated in float64 bins of the same weights. It is slower by
// 3-4x and kept only as the oracle the integer Acc is held to — both
// represent the exact sum, so every Round must agree to the bit.
type refAcc struct {
	bins [numBins]float64
	n    int
	spec float64
}

// refCarryEvery keeps the float bins inside float64's exact-integer
// range: 2^19 chunks below 2^32 stay below 2^51.
const refCarryEvery = 1 << 19

func (a *refAcc) Add(v float64) {
	if v == 0 {
		return
	}
	be := int(math.Float64bits(v)>>52) & 0x7ff
	if be == 0x7ff {
		a.spec += v
		return
	}
	// Top chunk bin m = floor((e+bias)/32) for the top-bit exponent
	// e = be-1023; the scale 2^(bias-32m) brings |v| below 2^32 and is
	// applied in two exact steps where it overflows float64.
	m := (be + 65) >> 5
	var rest float64
	if e := bias - binWidth*m; e <= 1023 {
		rest = v * math.Ldexp(1, e)
	} else {
		rest = v * math.Ldexp(1, 512) * math.Ldexp(1, e-512)
	}
	for {
		chunk := math.Trunc(rest)
		a.bins[m] += chunk
		rest = (rest - chunk) * two32
		if rest == 0 {
			break
		}
		m--
	}
	a.n++
	if a.n >= refCarryEvery {
		a.carry()
	}
}

func (a *refAcc) carry() {
	a.n = 0
	for b := 0; b < numBins-1; b++ {
		if hi := math.Trunc(a.bins[b] * (1.0 / two32)); hi != 0 {
			a.bins[b] -= hi * two32
			a.bins[b+1] += hi
		}
	}
}

func (a *refAcc) Round() float64 {
	if a.spec != 0 || math.IsNaN(a.spec) {
		return a.spec
	}
	a.carry()
	var digits [numBins]float64
	carry := 0.0
	for b := 0; b < numBins; b++ {
		t := a.bins[b] + carry
		d := math.Mod(t, two32)
		if d > two31 {
			d -= two32
		} else if d <= -two31 {
			d += two32
		}
		carry = (t - d) * (1.0 / two32)
		digits[b] = d
	}
	top := -1
	if carry != 0 {
		top = numBins
	} else {
		for b := numBins - 1; b >= 0; b-- {
			if digits[b] != 0 {
				top = b
				break
			}
		}
	}
	if top < 0 {
		return 0
	}
	shift := 0
	if topExp := binWidth*top - bias + 31; topExp > 1000 {
		shift = 1000 - topExp
	}
	head, tail := 0.0, 0.0
	fold := func(d float64, exp int) {
		v := math.Ldexp(d, exp+shift)
		s := head + v
		bv := s - head
		err := (head - (s - bv)) + (v - bv)
		head = s
		tail += err
	}
	if carry != 0 {
		fold(carry, binWidth*numBins-bias)
	}
	for b := numBins - 1; b >= 0; b-- {
		if digits[b] != 0 {
			fold(digits[b], binWidth*b-bias)
		}
	}
	return math.Ldexp(head+tail, -shift)
}

// sameBits reports whether two rounded sums agree: bit for bit, except
// that any NaN equals any NaN (a NaN's payload depends on the order the
// non-finite inputs met, which a partitioned sum is free to change).
func sameBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// normalized returns a's carry-normalized bins — a function of the exact
// sum only, so two accumulators fed the same multiset must agree on it.
func normalized(a *Acc) [numBins]int64 {
	a.carry()
	return a.bins
}

func encodeValues(vs []float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func repeated(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// FuzzAccMatchesReference holds the integer accumulator to the
// float-chunk oracle over the whole float64 range: the fuzz bytes are
// raw float64 bit patterns (so every exponent, subnormals, infinities
// and NaNs occur), ctl seeds a random partition of them into parts fed
// through Add or AddSlice, a random merge order, and one
// Transport -> MergeTransport -> RoundTransport hop between two halves
// of the parts. It also checks that each row kernel leaves exactly the
// bins element-wise Add leaves.
func FuzzAccMatchesReference(f *testing.F) {
	inf := math.Inf(1)
	for i, vs := range [][]float64{
		{5e-324, 5e-324},
		{5e-324, 1.0, -1.0},
		{2.2250738585072014e-308, -1.1125369292536007e-308}, // normal/subnormal boundary
		{math.MaxFloat64 / 4, math.MaxFloat64 / 4, -math.MaxFloat64 / 4},
		{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64},
		{1e16, 1, -1e16},
		{1, inf},
		{inf, -inf, 3},
		{math.NaN(), 1e300},
		{math.Copysign(0, -1), math.Copysign(0, -1)},
		{math.Copysign(0, -1), 1e-300, -1e-300},
		repeated(1.1, 3000),
		repeated(-math.MaxFloat64/8192, 3000),
		append(repeated(5e-324, 2000), repeated(-0x1p-1022, 2000)...),
	} {
		f.Add(encodeValues(vs), uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, ctl uint64) {
		vs := make([]float64, len(data)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var ref refAcc
		var whole Acc
		for _, v := range vs {
			ref.Add(v)
			whole.Add(v)
		}
		want := ref.Round()
		wholeBins := normalized(&whole)
		if got := whole.Round(); !sameBits(got, want) {
			t.Fatalf("Add: %x, oracle %x", math.Float64bits(got), math.Float64bits(want))
		}

		// Random partition, each part through Add or AddSlice, merged in
		// a random order into two halves that meet over a transport hop.
		rng := rand.New(rand.NewSource(int64(ctl)))
		parts := make([]Acc, 1+rng.Intn(6))
		lo := 0
		for p := range parts {
			hi := lo + rng.Intn(len(vs)-lo+1)
			if p == len(parts)-1 {
				hi = len(vs)
			}
			if rng.Intn(2) == 0 {
				parts[p].AddSlice(vs[lo:hi])
			} else {
				for _, v := range vs[lo:hi] {
					parts[p].Add(v)
				}
			}
			lo = hi
		}
		var halves [2]Acc
		for i, p := range rng.Perm(len(parts)) {
			halves[i%2].Merge(&parts[p])
		}
		w := halves[0].Transport(nil)
		MergeTransport(w, halves[1].Transport(nil))
		if got := RoundTransport(w); !sameBits(got, want) {
			t.Fatalf("partitioned + transported: %x, oracle %x", math.Float64bits(got), math.Float64bits(want))
		}
		if got := normalized(FromTransport(w)); got != wholeBins {
			t.Fatalf("partitioned + transported bins differ from element-wise Add")
		}

		// Row kernels against element-wise Add, and the product row
		// against the oracle fed the same rounded products.
		var row Acc
		row.AddSlice(vs)
		if normalized(&row) != wholeBins || !sameBits(row.spec, whole.spec) {
			t.Fatalf("AddSlice bins differ from element-wise Add")
		}
		ys := make([]float64, len(vs))
		for i := range ys {
			ys[i] = vs[(i+1+int(ctl%7))%len(vs)]
		}
		var mul, mulElem Acc
		var mulRef refAcc
		mul.AddMulSlice(vs, ys)
		for i, x := range vs {
			mulElem.Add(x * ys[i])
			mulRef.Add(x * ys[i])
		}
		if normalized(&mul) != normalized(&mulElem) || !sameBits(mul.spec, mulElem.spec) {
			t.Fatalf("AddMulSlice bins differ from element-wise Add of the products")
		}
		if got, want := mul.Round(), mulRef.Round(); !sameBits(got, want) {
			t.Fatalf("AddMulSlice: %x, oracle %x", math.Float64bits(got), math.Float64bits(want))
		}
	})
}

// sumVia adds vs split into the given contiguous parts, each into its
// own Acc, merged in a shuffled order.
func sumVia(vs []float64, cuts []int, mergeOrder []int) float64 {
	accs := make([]*Acc, len(cuts)+1)
	lo := 0
	bounds := append(append([]int(nil), cuts...), len(vs))
	for p, hi := range bounds {
		accs[p] = &Acc{}
		for _, v := range vs[lo:hi] {
			accs[p].Add(v)
		}
		lo = hi
	}
	total := &Acc{}
	for _, p := range mergeOrder {
		total.Merge(accs[p])
	}
	return total.Round()
}

func TestPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vs := make([]float64, 4096)
	for i := range vs {
		// Wild dynamic range with cancellation.
		vs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
	want := sumVia(vs, nil, []int{0})
	for trial := 0; trial < 50; trial++ {
		nParts := 1 + rng.Intn(7)
		cuts := make([]int, nParts)
		for i := range cuts {
			cuts[i] = rng.Intn(len(vs))
		}
		// Sort cuts (insertion).
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		order := rng.Perm(nParts + 1)
		if got := sumVia(vs, cuts, order); got != want {
			t.Fatalf("trial %d: partitioned sum %.17g != %.17g", trial, got, want)
		}
	}
}

func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(200)-100))
	}
	want := Sum(vs)
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(vs))
		var a Acc
		for _, p := range perm {
			a.Add(vs[p])
		}
		if got := a.Round(); got != want {
			t.Fatalf("trial %d: permuted sum %.17g != %.17g", trial, got, want)
		}
	}
}

func TestExactSmallIntegers(t *testing.T) {
	var a Acc
	for i := 1; i <= 100; i++ {
		a.Add(float64(i))
		a.Add(float64(-i))
	}
	if got := a.Round(); got != 0 {
		t.Fatalf("telescoping sum = %g, want 0", got)
	}
	a.Reset()
	a.Add(1e16)
	a.Add(1)
	a.Add(-1e16)
	if got := a.Round(); got != 1 {
		t.Fatalf("cancellation sum = %g, want 1 (exactness lost)", got)
	}
}

func TestSubnormalsAndExtremes(t *testing.T) {
	cases := [][]float64{
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64},
		{5e-324, 1.0, -1.0},
		{math.MaxFloat64 / 4, math.MaxFloat64 / 4, -math.MaxFloat64 / 4},
		{1e308, -1e308, 3},
		{2.2250738585072014e-308, -1.1125369292536007e-308}, // normal/subnormal boundary
	}
	for ci, vs := range cases {
		want := Sum(vs)
		rev := &Acc{}
		for i := len(vs) - 1; i >= 0; i-- {
			rev.Add(vs[i])
		}
		if got := rev.Round(); got != want {
			t.Fatalf("case %d: reversed %.17g != %.17g", ci, got, want)
		}
	}
	// Exactness at the subnormal floor.
	var a Acc
	a.Add(5e-324)
	a.Add(5e-324)
	if got := a.Round(); got != 1e-323 {
		t.Fatalf("subnormal doubling = %g", got)
	}
}

func TestNonFinite(t *testing.T) {
	var a Acc
	a.Add(1)
	a.Add(math.Inf(1))
	if got := a.Round(); !math.IsInf(got, 1) {
		t.Fatalf("Inf lost: %g", got)
	}
	var b Acc
	b.Add(math.NaN())
	if got := b.Round(); !math.IsNaN(got) {
		t.Fatalf("NaN lost: %g", got)
	}
}

func TestCarrySaturation(t *testing.T) {
	// Far more values than carryEvery, alternating signs and magnitudes:
	// element-wise Add forwards, the row kernel backwards in rows whose
	// lengths straddle the carry threshold, and the oracle.
	n := carryEvery*2 + 123
	value := func(i int) float64 {
		v := float64(i%97) * 1.25e10
		if i%2 == 1 {
			v = -v / 3
		}
		return v
	}
	var a, b Acc
	var ref refAcc
	for i := 0; i < n; i++ {
		a.Add(value(i))
		ref.Add(value(i))
	}
	row := make([]float64, 0, 1<<20+7)
	for i := n - 1; i >= 0; {
		row = row[:0]
		for ; i >= 0 && len(row) < cap(row); i-- {
			row = append(row, value(i))
		}
		b.AddSlice(row)
	}
	if normalized(&a) != normalized(&b) {
		t.Fatalf("carry saturation: row kernel bins differ from element-wise Add")
	}
	if a.Round() != b.Round() || a.Round() != ref.Round() {
		t.Fatalf("carry saturation broke invariance: %.17g vs %.17g, oracle %.17g", a.Round(), b.Round(), ref.Round())
	}
}

func TestTransportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a Acc
	for i := 0; i < 500; i++ {
		a.Add(rng.NormFloat64() * 1e-7)
	}
	want := a.Round()
	w := a.Transport(nil)
	if len(w) != TransportLen {
		t.Fatalf("transport length %d != %d", len(w), TransportLen)
	}
	if got := RoundTransport(w); got != want {
		t.Fatalf("transport round-trip %.17g != %.17g", got, want)
	}
	// Merging transports must equal merging accumulators.
	var b Acc
	for i := 0; i < 500; i++ {
		b.Add(rng.NormFloat64() * 1e9)
	}
	bw := b.Transport(nil)
	aw := append([]float64(nil), w...)
	MergeTransport(aw, bw)
	var ab Acc
	ab.Merge(&a)
	ab.Merge(&b)
	if got := RoundTransport(aw); got != ab.Round() {
		t.Fatalf("transport merge %.17g != acc merge %.17g", got, ab.Round())
	}
}

// TestQuickAddMatchesValue: for random triples the accumulator holds the
// mathematically exact sum — adding x, y, -x must leave exactly y.
func TestQuickAddMatchesValue(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		var a Acc
		a.Add(x)
		a.Add(y)
		a.Add(-x)
		return a.Round() == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = rng.NormFloat64()
	}
	var a Acc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Add(vs[i&4095])
	}
	_ = a.Round()
}

// BenchmarkAddMulSlice feeds 4096 products in rows of 6, 24 and 48 (the
// z-rows of a coarse multigrid level, the 24^3 SCF grid and a 48^3
// grid) through a block flushed after them, as MulRows does (block),
// and through Acc.AddMulSlice (acc). Random data spreads the products
// over a few dozen exponents, so a block takes two or three levels;
// smooth data, a slowly varying field squared, keeps them within one.
func BenchmarkAddMulSlice(b *testing.B) {
	const terms = 4096
	rng := rand.New(rand.NewSource(1))
	xs, ys, sm := make([]float64, terms), make([]float64, terms), make([]float64, terms)
	for i := range xs {
		xs[i], ys[i] = rng.NormFloat64(), rng.NormFloat64()
		sm[i] = 1 + 0.25*math.Sin(float64(i)/200)
	}
	for _, d := range []struct {
		name string
		x, y []float64
	}{{"random", xs, ys}, {"smooth", sm, sm}} {
		name, x, y := d.name, d.x, d.y
		for _, n := range []int{6, 24, 48} {
			b.Run(fmt.Sprintf("%s/row%d/block", name, n), func(b *testing.B) {
				var a Acc
				var blk block
				b.SetBytes(8 * terms)
				for b.Loop() {
					for lo := 0; lo < terms; lo += n {
						hi := min(lo+n, terms)
						blk.addMulSlice(&a, x[lo:hi], y[lo:hi])
					}
					blk.flush(&a)
				}
				_ = a.Round()
			})
			b.Run(fmt.Sprintf("%s/row%d/acc", name, n), func(b *testing.B) {
				var a Acc
				b.SetBytes(8 * terms)
				for b.Loop() {
					for lo := 0; lo < terms; lo += n {
						hi := min(lo+n, terms)
						a.AddMulSlice(x[lo:hi], y[lo:hi])
					}
				}
				_ = a.Round()
			})
		}
	}
}

// BenchmarkMulRows times one whole sweep through MulRows (block) and
// through AddMulSlice (acc), at block sizes the SCF workloads sweep: a
// 3^3 coarse level, 3x6x6 and 6^3 blocks, and 2, 3 and 12 planes of
// 12x12.
func BenchmarkMulRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][3]int{{3, 3, 3}, {3, 6, 6}, {6, 6, 6}, {2, 12, 12}, {3, 12, 12}, {12, 12, 12}} {
		nx, ny, n := s[0], s[1], s[2]
		x, y := make([]float64, nx*ny*n), make([]float64, nx*ny*n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		row := func(i, j int) ([]float64, []float64) {
			o := (i*ny + j) * n
			return x[o : o+n], y[o : o+n]
		}
		b.Run(fmt.Sprintf("n%d/block", len(x)), func(b *testing.B) {
			var a Acc
			for b.Loop() {
				a.MulRows(nx, ny, row)
			}
			_ = a.Round()
		})
		b.Run(fmt.Sprintf("n%d/acc", len(x)), func(b *testing.B) {
			var a Acc
			for b.Loop() {
				for i := range nx {
					for j := range ny {
						a.AddMulSlice(row(i, j))
					}
				}
			}
			_ = a.Round()
		})
	}
}
