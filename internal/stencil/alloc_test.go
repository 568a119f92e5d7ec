package stencil

import (
	"testing"

	"repro/internal/detsum"
)

// TestFusedKernelsAllocationFree pins the allocation contract of
// Kernel.Apply and Exec: every fused kernel, over each of the Full,
// Interior and Shell views and with each stencil body, and an Exec of a
// pointer Task allocate nothing per call, on a nil pool (the caller
// runs the whole sweep) and on two- and four-worker pools (the sweep is
// posted to the pool's job slot as data, its partials the pool's own).
// A partial accumulator per fan-out, a boxed Task, or a z-row of
// scratch per sweep shows here as allocations per call.
func TestFusedKernelsAllocationFree(t *testing.T) {
	src, dst := testGrid(12, 6, 6)
	v, prev := shellOperand(12, 6, 6, 0.5), shellOperand(12, 6, 6, -1)
	op := Laplacian(2, 0.6)
	var acc detsum.Acc
	kernels := []struct {
		name string
		run  func(op *Operator, p *Pool)
	}{
		{"Apply", func(op *Operator, p *Pool) { op.Apply(dst, src) }},
		{"ApplyParallel", func(op *Operator, p *Pool) { op.ApplyParallel(p, dst, src) }},
		{"Step", func(op *Operator, p *Pool) { op.Step(nil, 0.5, 0.25, 0).Apply(p, dst, src, nil, nil) }},
		{"Step v", func(op *Operator, p *Pool) { op.Step(v, 0.5, 0.25, 0).Apply(p, dst, src, nil, nil) }},
		{"Step prev", func(op *Operator, p *Pool) { op.Step(nil, 0.5, 0.25, -1).Apply(p, dst, src, prev, nil) }},
		{"Step v prev", func(op *Operator, p *Pool) { op.Step(v, 0.5, 0.25, -1).Apply(p, dst, src, prev, nil) }},
		{"Smooth", func(op *Operator, p *Pool) { op.Smooth(v, 0.1).Apply(p, dst, src, nil, nil) }},
		{"Residual", func(op *Operator, p *Pool) { op.Residual(v).Apply(p, dst, src, nil, &acc) }},
		{"Residual nil acc", func(op *Operator, p *Pool) { op.Residual(v).Apply(p, dst, src, nil, nil) }},
		{"Dot", func(op *Operator, p *Pool) { op.Dot().Apply(p, dst, src, nil, &acc) }},
		{"Dot narrowed by Kernel.Over", func(op *Operator, p *Pool) { op.Over(Full).Dot().Over(op.region).Apply(p, dst, src, nil, &acc) }},
	}
	pools := []*Pool{nil, NewPool(2), NewPool(4)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for _, simd := range []bool{true, false} {
		t.Run(rowBodyName(simd), func(t *testing.T) {
			setRowSIMD(t, simd)
			for _, p := range pools {
				for _, k := range kernels {
					for _, r := range []Region{Full, Interior, Shell} {
						view := op.Over(r)
						if n := testing.AllocsPerRun(20, func() { k.run(view, p) }); n != 0 {
							t.Errorf("%s over region %d on %d workers: %v allocations per call, want 0", k.name, r, p.Workers(), n)
						}
					}
				}
			}
		})
	}
	for _, p := range pools {
		var task shareTask
		if n := testing.AllocsPerRun(20, func() { p.Exec(12, &task) }); n != 0 {
			t.Errorf("Pool.Exec on %d workers: %v allocations per call, want 0", p.Workers(), n)
		}
	}
}

// shareTask is a Task that counts the items of each share: each share
// writes only its own slot, so it needs no lock.
type shareTask [4]int

func (t *shareTask) Share(i, lo, hi int) { t[i] += hi - lo }
