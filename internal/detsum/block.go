package detsum

import (
	"math"

	"repro/internal/cpu"
)

const (
	// blockLen is the number of products a block holds between flushes:
	// a multiple of 8, so that a padded block is whole vectors of
	// extractAVX2, and at most 2^(extractBits-1), so that a level's sum
	// stays exact.
	blockLen = 512
	// extractBits is M of the extraction: a level splits the block at
	// 2^M times its largest magnitude.
	extractBits = 10
	// extractLevels bounds the levels a block is peeled through before
	// its residuals go to AddSlice.
	extractLevels = 4
	// nonFinite is the smallest bit pattern, sign cleared, of an Inf or
	// a NaN.
	nonFinite = 0x7ff << 52
)

// blockSIMD selects the AVX2 bodies of the block kernel; the Go loops
// run everywhere else and are their oracle.
var blockSIMD = cpu.AVX2

// block buffers the rounded products of a dot sweep. Full, and at the
// end of the sweep, it flushes them into an Acc by error-free
// extraction (Rump, Ogita and Oishi, "Accurate floating-point
// summation, part I", SIAM J. Sci. Comput. 31(1), 2008). The zero value
// is empty and ready to use.
type block struct {
	p [blockLen]float64
	n int
	// max holds, lane by lane, the largest product's bit pattern with
	// the sign cleared.
	max [4]uint64
}

// addMulSlice appends the rounded products x[i]*y[i] to the block,
// flushing into a whenever it fills. The slices must have equal length.
func (b *block) addMulSlice(a *Acc, x, y []float64) {
	if len(x) != len(y) {
		panic("detsum: MulRows length mismatch")
	}
	for len(x) > 0 {
		// k >= 1 products fit: the AVX2 body's addresses are in bounds.
		k := min(len(x), blockLen-b.n)
		if blockSIMD {
			productsAVX2(&b.p[b.n], &x[0], &y[0], k, &b.max)
		} else {
			productsGo(b.p[b.n:b.n+k], x[:k], y[:k], &b.max)
		}
		b.n += k
		x, y = x[k:], y[k:]
		if b.n == blockLen {
			b.flush(a)
		}
	}
}

// flush adds the block's products to a exactly and empties it. With a
// non-finite product present, AddSlice takes them all, so NaN payloads
// and Inf-Inf come out as AddMulSlice's. Otherwise, with every
// |p| < 2^E, each level takes σ = 2^k, k = E + M, and splits every p
// into q = (σ+p)-σ and r = p-q. Both are exact (Sterbenz), every q is a
// multiple of 2^(k-53) and |Σq| < 2^k while the block holds at most
// 2^(M-1) products, so Σq is an exact double in any order and lane
// split. Σq goes to a, the residuals r replace the products, and the
// next level, with |r| <= 2^(k-53), lowers k by 53 - M. The residuals
// left after extractLevels levels, or once σ would leave the normal
// range, go to AddSlice.
func (b *block) flush(a *Acc) {
	n := b.n
	if n == 0 {
		return
	}
	m := max(b.max[0], b.max[1], b.max[2], b.max[3])
	b.n, b.max = 0, [4]uint64{}
	if m >= nonFinite {
		a.AddSlice(b.p[:n])
		return
	}
	padded := b.p[:(n+7)&^7]
	clear(padded[n:])
	k := int(m>>52) - 1022 + extractBits
	for range extractLevels {
		if k > 1023 || k < -1022 {
			break
		}
		sigma := math.Float64frombits(uint64(k+1023) << 52)
		var s float64
		var bits uint64
		if blockSIMD {
			s, bits = extractAVX2(&padded[0], len(padded), sigma)
		} else {
			s, bits = extractGo(padded, sigma)
		}
		if s != 0 {
			a.Add(s)
		}
		if bits<<1 == 0 { // every residual is ±0
			return
		}
		k -= 53 - extractBits
	}
	a.AddSlice(b.p[:n])
}

// productsGo stores the rounded products x[i]*y[i] in dst and raises
// the lanes of m to the largest of their bit patterns with the sign
// cleared (which lane takes a product is the body's choice; this loop
// uses lane 0). dst and y are at least as long as x. Each product is
// rounded on its own (the explicit conversion forbids fusing it into a
// neighbouring operation on any architecture), as in AddMulSlice.
func productsGo(dst, x, y []float64, m *[4]uint64) {
	dst, y = dst[:len(x)], y[:len(x)]
	top := m[0]
	// bce:begin
	for i, xv := range x {
		v := float64(xv * y[i])
		dst[i] = v
		top = max(top, math.Float64bits(v)&^(1<<63))
	}
	// bce:end
	m[0] = top
}

// extractGo is one level of flush on the finite values p, a whole
// number of 8-value vectors: it replaces each p by r = p - q,
// q = (σ+p)-σ, and returns Σq and the bitwise OR of the residuals.
func extractGo(p []float64, sigma float64) (sum float64, bits uint64) {
	// bce:begin
	for i, v := range p {
		q := (sigma + v) - sigma
		r := v - q
		p[i] = r
		sum += q
		bits |= math.Float64bits(r)
	}
	// bce:end
	return sum, bits
}

// MulRows accumulates the rounded products of nx*ny row pairs, the
// rows of one reducing sweep: row(i, j) returns the pair of plane i in
// [0, nx) and row j in [0, ny), computing it first if it must (a stencil
// row, an axpy), and the rows are visited plane by plane in order. The
// products fill a block on this call's stack, flushed into a whenever
// it is full and at the end, so a ends up with the same exact sum as
// AddMulSlice over the same rows would leave it with.
func (a *Acc) MulRows(nx, ny int, row func(i, j int) (x, y []float64)) {
	var b block
	for i := range nx {
		for j := range ny {
			x, y := row(i, j)
			b.addMulSlice(a, x, y)
		}
	}
	b.flush(a)
}
