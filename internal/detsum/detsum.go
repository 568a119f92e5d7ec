// Package detsum implements deterministic (order-independent) float64
// summation for the solver stack's reductions.
//
// The distributed solvers in internal/gpaw must produce results that are
// bit-identical to the serial solvers for every rank count, process-grid
// shape and thread count. A plain float64 accumulator cannot provide
// that: floating-point addition is not associative, so any partitioning
// of a sum — across pool workers or across MPI ranks — changes the
// rounding. detsum fixes the problem at the root: an Acc is a fixed-point
// register wide enough for every finite float64 (a Kulisch-style
// superaccumulator), held as 68 int64 bins of 32 value bits each. Adding
// a value deposits its 53-bit mantissa, shifted to its exponent's
// position, into the three bins it straddles — integer shifts and adds,
// no rounding anywhere — so the bins, and therefore the rounded result,
// depend only on the multiset of added values, never on the order or
// grouping of the additions.
//
// The contract the solver stack builds on:
//
//	Add is exact            -> Acc holds the true sum of all added values
//	Merge is exact          -> any partitioning of the terms gives the
//	                           same Acc value (threads, ranks, batches)
//	Round is deterministic  -> equal Acc values round to equal float64s
//
// Reducing loops feed whole rows (AddSlice, AddMulSlice) rather than
// single values: the deposit is the same, the per-call overhead and the
// bounds checks are paid once per row.
//
// Long exact dots run on two levels, after R. M. Neal's small and large
// superaccumulators (arXiv:1505.05571). MulRows hands a sweep to a
// per-exponent front end: one int64 chunk per biased exponent, to which
// each product adds its signed mantissa in one integer add, drained
// into the 68-bin register every 1024 terms (before any chunk can
// overflow) and at the end of the sweep. The register ends up holding
// the same exact sum, and so the same bins and the same Round, as
// AddMulSlice over the same products.
//
// Accumulators serialize to a flat []float64 (Transport/MergeTransport)
// so they travel through the mpi runtime unchanged and merge on the
// receiving rank with the same exactness guarantee.
package detsum

import "math"

const (
	// binWidth is the number of value bits per bin. Bin b counts units of
	// 2^(32b-bias).
	binWidth = 32
	// bias positions bin 0 at weight 2^-1088, below the smallest
	// subnormal's lowest mantissa bit (2^-1074), so every finite float64
	// deposits exactly.
	bias = 1088
	// numBins covers weights up to 2^(32*67-1088) = 2^1056 > MaxFloat64,
	// leaving headroom for carries out of the top value bin.
	numBins = 68
	// expShift turns a biased exponent into a bit offset above bin 0: a
	// finite float64 is mant*2^(e-1075) with e = max(biasedExp, 1), that
	// is mant << (e+expShift) units of 2^-bias.
	expShift = bias - 1075
	// carryEvery bounds the deposits between carry propagations. A
	// deposit moves a bin by less than 2^32 and a carried bin is below
	// 2^32 (or, merged from transports, 2^53), so 2^24 deposits keep
	// every bin below 2^57 — six bits inside int64. The bound is far
	// below the 2^30 the headroom allows so that a test can cross it
	// twice in a fraction of a second; a carry pass every 16M values
	// costs nothing measurable.
	carryEvery = 1 << 24

	two32 = 1 << 32
	two31 = 1 << 31
)

// Acc is an exact accumulator of float64 values. The zero value is an
// empty sum and is ready to use.
type Acc struct {
	bins [numBins]int64
	n    int     // deposits since the last carry propagation
	spec float64 // running sum of non-finite inputs (Inf/NaN)
}

// Reset empties the accumulator.
func (a *Acc) Reset() { *a = Acc{} }

// finite reports whether the float64 with these bits is neither Inf nor
// NaN.
func finite(bits uint64) bool { return bits>>52&0x7ff != 0x7ff }

// split decodes the finite float64 with the given bits, branch-free,
// into a signed integer mantissa and its bit offset above bin 0: the
// value is mant << off units of 2^-bias. Normal values get their
// implicit bit back; zero and subnormals have none and sit at exponent 1.
func split(bits uint64) (mant int64, off uint64) {
	be := bits >> 52 & 0x7ff
	normal := (be + 0x7ff) >> 11 // 1 unless be == 0
	sgn := int64(bits) >> 63
	mant = int64(bits&(1<<52-1) | normal<<52)
	return (mant ^ sgn) - sgn, be + 1 - normal + expShift
}

// deposit adds mant << off to the bins. The shifted mantissa spans three
// 32-bit pieces: the two low ones are the non-negative low words of its
// two's-complement form and the top one carries the sign, so the pieces
// sum to the value exactly. A zero mantissa deposits nothing.
func (a *Acc) deposit(mant int64, off uint64) {
	sh := off & 31
	// No finite value reaches past bin 66 (off <= 2059); the clamp only
	// lets the compiler drop the three bounds checks.
	k := min(off>>5, numBins-3)
	hi := mant >> (32 - sh)
	a.bins[k] += int64(uint32(mant << sh))
	a.bins[k+1] += int64(uint32(hi))
	a.bins[k+2] += hi >> 32
}

// Add accumulates v exactly. Non-finite values are tracked separately
// and poison Round, matching a plain accumulator's behaviour.
func (a *Acc) Add(v float64) {
	bits := math.Float64bits(v)
	if !finite(bits) {
		a.spec += v
		return
	}
	a.deposit(split(bits))
	a.deposited(1)
}

// AddMul accumulates the rounded product x*y — the element step of a
// deterministic dot product. The product is rounded once, identically
// for every partitioning, and then accumulated exactly.
func (a *Acc) AddMul(x, y float64) { a.Add(float64(x * y)) }

// AddSlice accumulates every element of x: Add over a row, with the
// carry threshold checked once per row rather than once per element.
func (a *Acc) AddSlice(x []float64) {
	if k := carryEvery - a.n; len(x) > k {
		// A row that would pass the carry threshold is fed in two parts;
		// the first fills the window exactly and carries.
		a.AddSlice(x[:k])
		a.AddSlice(x[k:])
		return
	}
	for _, v := range x {
		bits := math.Float64bits(v)
		if !finite(bits) {
			a.spec += v
			continue
		}
		a.deposit(split(bits))
	}
	a.deposited(len(x))
}

// AddMulSlice accumulates the rounded products x[i]*y[i] — a row of a
// deterministic dot product (a sum of squares when y is x). Each product
// is rounded to float64 on its own (the explicit conversion forbids
// fusing it into a neighbouring operation on any architecture) and then
// accumulated exactly. The slices must have equal length.
func (a *Acc) AddMulSlice(x, y []float64) {
	if len(x) != len(y) {
		panic("detsum: AddMulSlice length mismatch")
	}
	if k := carryEvery - a.n; len(x) > k {
		a.AddMulSlice(x[:k], y[:k])
		a.AddMulSlice(x[k:], y[k:])
		return
	}
	for i, xv := range x {
		v := float64(xv * y[i])
		bits := math.Float64bits(v)
		if !finite(bits) {
			a.spec += v
			continue
		}
		a.deposit(split(bits))
	}
	a.deposited(len(x))
}

// deposited counts k deposits toward the carry threshold and carries
// when it is reached. The row kernels size their rows so that the count
// lands on the threshold, never past it; a front's drain may pass it by
// fewer than numExps deposits, which the bins' headroom absorbs.
func (a *Acc) deposited(k int) {
	a.n += k
	if a.n >= carryEvery {
		a.carry()
	}
}

// carry moves each bin's overflow (beyond 32 bits) one bin up, leaving
// every bin but the top one in [0, 2^32); the top bin keeps the sign.
// The accumulator's value is unchanged.
func (a *Acc) carry() {
	a.n = 0
	var c int64
	for b := 0; b < numBins-1; b++ {
		t := a.bins[b] + c
		c = t >> binWidth // arithmetic: floor, so the remainder is non-negative
		a.bins[b] = t - c<<binWidth
	}
	a.bins[numBins-1] += c
}

// Merge folds o into a exactly: afterwards a holds the sum of both
// accumulators' values. o is carry-normalized in place but its value is
// unchanged.
func (a *Acc) Merge(o *Acc) {
	a.carry()
	o.carry()
	for b := range a.bins {
		a.bins[b] += o.bins[b]
	}
	a.spec += o.spec
	a.carry()
}

// Round returns the accumulator's value as a float64. The bins are
// first reduced to the unique balanced base-2^32 representation of the
// exact sum, so equal sums always produce equal results regardless of
// the addition history.
func (a *Acc) Round() float64 {
	if a.spec != 0 || math.IsNaN(a.spec) {
		return a.spec
	}
	a.carry()
	// Canonical balanced digits: d in (-2^31, 2^31].
	var digits [numBins]float64
	var carry int64
	top := -1
	for b := 0; b < numBins; b++ {
		t := a.bins[b] + carry
		d := t & (two32 - 1)
		if d > two31 {
			d -= two32
		}
		carry = (t - d) >> binWidth
		digits[b] = float64(d)
		if d != 0 {
			top = b
		}
	}
	// Fold largest-to-smallest with a compensated (head + tail)
	// accumulator. The canonical digits are non-overlapping, so the
	// head/tail pair captures the top ~106 bits and the result is the
	// faithfully rounded sum — exact whenever the true sum is
	// representable. Deterministic for canonical digits either way.
	//
	// A balanced top digit can sit one bin above the value's magnitude
	// (e.g. 2^1024 - small), which would overflow mid-fold even for a
	// representable sum; when the top digit is near the float64 ceiling
	// the fold runs in a 2^shift-scaled space and rescales once at the
	// end (power-of-two scaling is exact; a true overflow still lands
	// on ±Inf).
	if carry != 0 {
		top = numBins
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
		err := (head - (s - bv)) + (v - bv) // TwoSum error term
		head = s
		tail += err
	}
	if carry != 0 {
		fold(float64(carry), binWidth*numBins-bias)
	}
	for b := numBins - 1; b >= 0; b-- {
		if digits[b] != 0 {
			fold(digits[b], binWidth*b-bias)
		}
	}
	return math.Ldexp(head+tail, -shift)
}

// TransportLen is the length of the []float64 an Acc serializes to.
const TransportLen = numBins + 1

// Transport appends the accumulator's state to dst as plain float64
// words (carry-normalized: every word is an integer below 2^32 in
// magnitude for any sum float64 can hold, so even 2^20 transports can be
// summed term-by-term without rounding). The words travel through mpi
// buffers unchanged.
func (a *Acc) Transport(dst []float64) []float64 {
	a.carry()
	for _, b := range a.bins {
		dst = append(dst, float64(b))
	}
	return append(dst, a.spec)
}

// FromTransport reconstructs an accumulator from Transport's words.
func FromTransport(w []float64) *Acc {
	a := &Acc{}
	for b := range a.bins {
		a.bins[b] = int64(w[b])
	}
	a.spec = w[numBins]
	return a
}

// MergeTransport adds the transported accumulator src into dst
// word-by-word (dst and src both in Transport layout). The addition is
// exact for any realistic number of merges (the words are integers
// below 2^32), so the merged transport represents the exact combined
// sum independent of merge order.
func MergeTransport(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// RoundTransport rounds a transported accumulator without copying it
// back into an Acc first.
func RoundTransport(w []float64) float64 { return FromTransport(w).Round() }

// Sum is a convenience: the deterministic sum of a slice.
func Sum(vs []float64) float64 {
	var a Acc
	a.AddSlice(vs)
	return a.Round()
}
