package stencil

import (
	"testing"

	"repro/internal/detsum"
)

// TestFusedKernelsAllocationFree pins the one-worker contract of sweep
// and sweepRange: on a nil pool every fused kernel, over each of the
// Full, Interior and Shell views and with each stencil body, and every
// BLAS-1 driver runs on the caller without a single heap allocation.
// A closure handed to Pool.Exec, or a z-row of scratch per sweep, shows
// here as one allocation per call.
func TestFusedKernelsAllocationFree(t *testing.T) {
	src, dst := testGrid(12, 6, 6)
	v, prev := shellOperand(12, 6, 6, 0.5), shellOperand(12, 6, 6, -1)
	op := Laplacian(2, 0.6)
	var acc detsum.Acc
	kernels := []struct {
		name string
		run  func(op *Operator)
	}{
		{"Apply", func(op *Operator) { op.Apply(dst, src) }},
		{"ApplyRecurrence", func(op *Operator) { op.ApplyRecurrence(nil, dst, src, nil, nil, 0.5, 0.25, 0) }},
		{"ApplyRecurrence v", func(op *Operator) { op.ApplyRecurrence(nil, dst, src, v, nil, 0.5, 0.25, 0) }},
		{"ApplyRecurrence prev", func(op *Operator) { op.ApplyRecurrence(nil, dst, src, nil, prev, 0.5, 0.25, -1) }},
		{"ApplyRecurrence v prev", func(op *Operator) { op.ApplyRecurrence(nil, dst, src, v, prev, 0.5, 0.25, -1) }},
		{"ApplySmooth", func(op *Operator) { op.ApplySmooth(nil, dst, src, v, 0.1) }},
		{"ApplyResidualAcc", func(op *Operator) { op.ApplyResidualAcc(nil, dst, v, src, &acc) }},
		{"ApplyResidualAcc nil acc", func(op *Operator) { op.ApplyResidualAcc(nil, dst, v, src, nil) }},
		{"ApplyDotAcc", func(op *Operator) { op.ApplyDotAcc(nil, dst, src, &acc) }},
	}
	for _, simd := range []bool{true, false} {
		t.Run(rowBodyName(simd), func(t *testing.T) {
			setRowSIMD(t, simd)
			for _, k := range kernels {
				for _, r := range []Region{Full, Interior, Shell} {
					view := op.Over(r)
					if n := testing.AllocsPerRun(20, func() { k.run(view) }); n != 0 {
						t.Errorf("%s over region %d: %v allocations per call, want 0", k.name, r, n)
					}
				}
			}
		})
	}
	var p *Pool
	drivers := []struct {
		name string
		run  func()
	}{
		{"Axpy", func() { p.Axpy(dst, 0.5, src) }},
		{"AxpyScale", func() { p.AxpyScale(dst, 0.5, src, 0.25) }},
		{"Scale", func() { p.Scale(dst, 0.5) }},
		{"AddScalar", func() { p.AddScalar(dst, 0.5) }},
		{"Copy", func() { p.Copy(dst, src) }},
		{"SumAcc", func() { p.SumAcc(dst, &acc) }},
		{"DotAcc", func() { p.DotAcc(dst, src, &acc) }},
		{"AxpyDot", func() { _ = p.AxpyDot(dst, 0.5, src) }},
	}
	for _, d := range drivers {
		if n := testing.AllocsPerRun(20, d.run); n != 0 {
			t.Errorf("Pool.%s on a nil pool: %v allocations per call, want 0", d.name, n)
		}
	}
}
