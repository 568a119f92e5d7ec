package detsum

import "math"

const (
	// numExps is the number of biased float64 exponents; front keeps one
	// chunk per exponent.
	numExps = 1 << 11
	// frontTerms is the number of terms a front takes between drains. A
	// term adds a mantissa below 2^53 in magnitude to one chunk, so 1024
	// of them keep every chunk below 2^63; a 1025th could overflow it.
	frontTerms = 1 << 10
)

// front is the large superaccumulator of R. M. Neal's two-level exact
// summation (arXiv:1505.05571) in front of an Acc: one int64 chunk per
// biased exponent, so adding a term is one integer add of its signed
// 53-bit mantissa, with no shift and no bin split. Zero and the
// subnormals go to chunk 1, which has their weight, as in split. Every
// frontTerms terms, and at the end of a sweep, drain deposits each
// non-zero chunk into the Acc. The Acc then holds the same exact sum,
// so the same carry-normalized bins, as AddMulSlice over the same terms
// would leave it with. The zero value is empty and ready to use.
type front struct {
	chunk [numExps]int64
	// n counts the terms since the last drain; bit b of blocks is set
	// when one of them touched chunks [64b, 64b+64).
	n      int
	blocks uint32
}

// addMulSlice adds the rounded products x[i]*y[i] to the front,
// draining into a whenever the chunks are full. Non-finite products go
// straight to a's spec in term order, as in AddMulSlice, so NaN
// payloads and Inf-Inf results come out the same. The slices must have
// equal length.
func (f *front) addMulSlice(a *Acc, x, y []float64) {
	if len(x) != len(y) {
		panic("detsum: AddMulSlice length mismatch")
	}
	for len(x) > 0 {
		k := min(len(x), frontTerms-f.n)
		f.addMulRow(a, x[:k], y[:k])
		x, y = x[k:], y[k:]
		if f.n == frontTerms {
			f.drain(a)
		}
	}
}

// addMulRow is addMulSlice for a row that fits in the current drain
// window. split decodes each product; its offset, less expShift, is the
// chunk index: the biased exponent, or 1 for zero and the subnormals.
// The masks change no index; they only let the compiler drop the bounds
// check and the shift's range check.
func (f *front) addMulRow(a *Acc, x, y []float64) {
	f.n += len(x)
	blocks := f.blocks
	y = y[:len(x)]
	// bce:begin
	for i, xv := range x {
		v := float64(xv * y[i])
		bits := math.Float64bits(v)
		if !finite(bits) {
			a.spec += v
			continue
		}
		mant, off := split(bits)
		e := (off - expShift) & (numExps - 1)
		f.chunk[e] += mant
		blocks |= 1 << (e >> 6 & 31)
	}
	// bce:end
	f.blocks = blocks
}

// drain deposits every non-zero chunk of the touched blocks into a,
// counting each deposit toward a's carry threshold, and leaves the
// front empty.
func (f *front) drain(a *Acc) {
	k := 0
	for b := range numExps / 64 {
		if f.blocks>>b&1 == 0 {
			continue
		}
		for e := 64 * b; e < 64*b+64; e++ {
			if c := f.chunk[e]; c != 0 {
				a.deposit64(c, uint64(e)+expShift)
				f.chunk[e] = 0
				k++
			}
		}
	}
	f.n, f.blocks = 0, 0
	a.deposited(k)
}

// deposit64 adds v << off to the bins, for a chunk v of up to 64 bits:
// the shifted value spans four 32-bit pieces, the three low ones the
// non-negative words of its two's-complement form and the top one the
// sign. Like deposit's, every piece moves its bin by less than 2^32.
func (a *Acc) deposit64(v int64, off uint64) {
	sh := off & 31
	// No chunk reaches past bin 67 (off <= 2059); the clamp only lets
	// the compiler drop the four bounds checks.
	k := min(off>>5, numBins-4)
	lo := uint64(v) << sh
	hi := v >> (64 - sh)
	a.bins[k] += int64(uint32(lo))
	a.bins[k+1] += int64(lo >> 32)
	a.bins[k+2] += int64(uint32(hi))
	a.bins[k+3] += hi >> 32
}

// MulRows accumulates the rounded products of nx*ny row pairs, the
// rows of one reducing sweep: row(i, j) returns the pair of plane i in
// [0, nx) and row j in [0, ny), computing it first if it must (a stencil
// row, an axpy), and the rows are visited plane by plane in order. The
// products feed a front on this call's stack, drained into a at the
// end, so a ends up with the same exact sum as AddMulSlice over the
// same rows would leave it with.
func (a *Acc) MulRows(nx, ny int, row func(i, j int) (x, y []float64)) {
	var f front
	for i := range nx {
		for j := range ny {
			x, y := row(i, j)
			f.addMulSlice(a, x, y)
		}
	}
	f.drain(a)
}
