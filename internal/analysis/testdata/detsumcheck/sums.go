// Package d exercises detsumcheck: raw floating-point accumulation
// across loop iterations in a bit-identity-guarded package. The test
// loads this directory under a guarded import path (and once more
// under an unguarded one, expecting silence).
package d

import "repro/internal/detsum"

// sumRange is the canonical broken reduction.
func sumRange(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x // want `\[detsumcheck\] raw floating-point accumulation`
	}
	return s
}

// sumAssignForm spells the accumulation as x = x + e.
func sumAssignForm(xs []float64) float64 {
	s := 0.0
	for i := 0; i < len(xs); i++ {
		s = s + xs[i] // want `raw floating-point accumulation`
	}
	return s
}

// sumReversed spells it as x = e + x.
func sumReversed(xs []float64) float64 {
	s := 0.0
	for i := range xs {
		s = xs[i] + s // want `raw floating-point accumulation`
	}
	return s
}

// residual accumulates downward with -=.
func residual(xs []float64) float64 {
	r := 1.0
	for _, x := range xs {
		r -= x * x // want `raw floating-point accumulation`
	}
	return r
}

type stats struct{ total float64 }

// fieldFold accumulates into a struct field.
func (st *stats) fieldFold(xs []float64) {
	for _, x := range xs {
		st.total += x // want `raw floating-point accumulation`
	}
}

// axpy is element-wise: the LHS is indexed per iteration, so nothing
// accumulates across iterations.
func axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// viaAcc is the approved reduction shape.
func viaAcc(xs []float64) float64 {
	var a detsum.Acc
	for _, x := range xs {
		a.Add(x)
	}
	return a.Round()
}

// fillAcc folds through an Acc passed by pointer — the helper shape
// solver code uses; no raw accumulation.
func fillAcc(a *detsum.Acc, xs, ys []float64) {
	for i := range xs {
		a.Add(xs[i] * ys[i])
	}
}

// perIteration declares its accumulator inside the body: it does not
// survive the back edge, so there is no cross-iteration reduction.
func perIteration(xs []float64) float64 {
	last := 0.0
	for _, x := range xs {
		v := x
		v += 1.0
		last = v
	}
	return last
}

// intCount: integer accumulation is exact and never flagged.
func intCount(xs []float64) int {
	n := 0
	for range xs {
		n++
	}
	return n
}

// straightLine accumulates outside any loop: the order is fixed by the
// program text itself.
func straightLine(a, b, c float64) float64 {
	s := a
	s += b
	s += c
	return s
}

// justified carries the fixed-order annotation the real kernels use.
func justified(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		//lint:ignore detsumcheck testdata: provably fixed-order rank-local sum
		s += x
	}
	return s
}
