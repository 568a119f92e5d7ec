package stencil

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/detsum"
	"repro/internal/grid"
	"repro/internal/topology"
)

// testGrid builds a deterministic source grid with periodic halos
// filled and a matching empty destination.
func testGrid(nx, ny, nz int) (src, dst *grid.Grid) {
	src = grid.New(nx, ny, nz, 2)
	src.FillFunc(func(i, j, k int) float64 {
		return float64((i*31+j*17+k*7)%23)/3 - 2.5
	})
	src.FillHalosPeriodic()
	dst = grid.New(nx, ny, nz, 2)
	return src, dst
}

// taskFunc adapts a func to Task, for tests whose fan-outs are
// closures.
type taskFunc func(i, lo, hi int)

func (f taskFunc) Share(i, lo, hi int) { f(i, lo, hi) }

func TestPoolExecCoversRange(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		p := NewPool(w)
		var count atomic.Int64
		covered := make([]atomic.Int32, 37)
		p.Exec(37, taskFunc(func(worker, lo, hi int) {
			if worker < 0 || worker >= w {
				t.Errorf("worker %d out of range", worker)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
				count.Add(1)
			}
		}))
		if count.Load() != 37 {
			t.Fatalf("workers=%d: covered %d of 37 items", w, count.Load())
		}
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d covered %d times", w, i, covered[i].Load())
			}
		}
		p.Close()
	}
}

func TestPoolExecEmptyAndNil(t *testing.T) {
	var nilPool *Pool
	ran := 0
	nilPool.Exec(5, taskFunc(func(_, lo, hi int) { ran += hi - lo }))
	if ran != 5 {
		t.Fatalf("nil pool covered %d of 5", ran)
	}
	nilPool.Exec(0, taskFunc(func(_, _, _ int) { t.Fatal("fn called for n=0") }))
	if nilPool.Workers() != 1 {
		t.Fatalf("nil pool workers = %d", nilPool.Workers())
	}
	p := NewPool(4)
	defer p.Close()
	p.Exec(0, taskFunc(func(_, _, _ int) { t.Error("fn called for n=0") }))
	// More workers than items: every item still covered exactly once.
	got := make([]int, 2)
	p.Exec(2, taskFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			got[i]++
		}
	}))
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("short range coverage = %v", got)
	}
}

func TestPoolNestedExecDoesNotDeadlock(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.Exec(4, taskFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Exec(8, taskFunc(func(_, l, h int) { total.Add(int64(h - l)) }))
		}
	}))
	if total.Load() != 32 {
		t.Fatalf("nested exec covered %d of 32", total.Load())
	}
}

// TestPoolExecSharesRunOnce pins the claiming protocol: over many
// back-to-back fan-outs, whoever claims a share, every share of every
// Exec runs exactly once, with its topology.Split bounds and its own
// share index. Four goroutines calling Exec on one pool at once (all
// but one find the job slot taken and run on their callers) still
// cover their ranges exactly once each.
func TestPoolExecSharesRunOnce(t *testing.T) {
	for _, w := range []int{2, 4} {
		p := NewPool(w)
		const execs = 10000
		var n int
		hits := make([]atomic.Int32, w)
		var bad atomic.Int32
		fn := taskFunc(func(worker, lo, hi int) {
			if worker < 0 || worker >= w {
				bad.Add(1)
				return
			}
			if l, ln := topology.Split(n, w, worker); lo != l || hi != l+ln {
				bad.Add(1)
			}
			hits[worker].Add(1)
			if worker == 0 {
				runtime.Gosched() // let the workers claim the other shares
			}
		})
		for e := 0; e < execs; e++ {
			n = 2 + e%(3*w) // fewer items than workers, as many, and more
			p.Exec(n, fn)
			for i := range hits {
				want := int32(0)
				if _, ln := topology.Split(n, w, i); ln > 0 {
					want = 1
				}
				if got := hits[i].Swap(0); got != want {
					t.Fatalf("workers=%d exec %d (n=%d): share %d ran %d times, want %d", w, e, n, i, got, want)
				}
			}
			if bad.Load() != 0 {
				t.Fatalf("workers=%d exec %d (n=%d): a share ran with the wrong index or bounds", w, e, n)
			}
		}

		const callers, items, rounds = 4, 101, 200
		var covered [callers][items]atomic.Int32
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn := taskFunc(func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						covered[c][i].Add(1)
					}
				})
				for range rounds {
					p.Exec(items, fn)
				}
			}()
		}
		wg.Wait()
		for c := range covered {
			for i := range covered[c] {
				if got := covered[c][i].Load(); got != rounds {
					t.Fatalf("workers=%d: concurrent caller %d covered item %d %d times in %d Execs", w, c, i, got, rounds)
				}
			}
		}
		p.Close()
	}
}

// TestPoolPanicPropagates: a panic in the first or the last share is
// re-raised on Exec's caller, whoever ran the share, and the pool stays
// usable: the next Exec covers its whole range.
func TestPoolPanicPropagates(t *testing.T) {
	for _, w := range []int{2, 4} {
		p := NewPool(w)
		for _, share := range []int{0, w - 1} {
			for rep := 0; rep < 50; rep++ {
				got := func() (r any) {
					defer func() { r = recover() }()
					p.Exec(4*w, taskFunc(func(worker, _, _ int) {
						if worker == share {
							panic(share)
						}
					}))
					return nil
				}()
				if got != share {
					t.Fatalf("workers=%d: a panic in share %d re-raised %v on the caller", w, share, got)
				}
				var covered atomic.Int64
				p.Exec(4*w, taskFunc(func(_, lo, hi int) { covered.Add(int64(hi - lo)) }))
				if covered.Load() != int64(4*w) {
					t.Fatalf("workers=%d: after a panic in share %d the next Exec covered %d of %d", w, share, covered.Load(), 4*w)
				}
			}
		}
		p.Close()
	}
}

// BenchmarkPoolExec prices one fork-join of an almost empty body: the
// wake-up, the claims and the join of a fan-out, which every sweep on
// a multi-worker pool pays.
func BenchmarkPoolExec(b *testing.B) {
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			sums := make([]int, w)
			fn := taskFunc(func(worker, lo, hi int) { sums[worker] += hi - lo })
			b.ReportAllocs()
			for b.Loop() {
				p.Exec(64, fn)
			}
		})
	}
}

// TestApplyParallelMatchesSerial is the tentpole equivalence guarantee:
// the pool-split, cache-blocked kernel must be bit-identical to the
// serial Apply for every worker count.
func TestApplyParallelMatchesSerial(t *testing.T) {
	op := Laplacian(2, 0.4)
	src, want := testGrid(19, 13, 11)
	op.Apply(want, src)
	for _, w := range []int{1, 2, 4, 8} {
		p := NewPool(w)
		got := grid.New(19, 13, 11, 2)
		op.ApplyParallel(p, got, src)
		if d := want.MaxAbsDiff(got); d != 0 {
			t.Fatalf("workers=%d: ApplyParallel deviates from Apply by %g", w, d)
		}
		p.Close()
	}
}

// TestApplyParallelTilesLargeGrid crosses the tileJ boundary so multiple
// (j, k) tiles are exercised.
func TestApplyParallelTilesLargeGrid(t *testing.T) {
	op := Laplacian(2, 1)
	src, want := testGrid(8, 2*tileJ+5, 9)
	op.Apply(want, src)
	p := NewPool(3)
	defer p.Close()
	got := grid.New(8, 2*tileJ+5, 9, 2)
	op.ApplyParallel(p, got, src)
	if d := want.MaxAbsDiff(got); d != 0 {
		t.Fatalf("tiled parallel apply deviates by %g", d)
	}
}

func TestScaledOperator(t *testing.T) {
	op := Laplacian(2, 0.7)
	neg := op.Scaled(-1)
	src, a := testGrid(8, 8, 8)
	b := grid.New(8, 8, 8, 2)
	op.Apply(a, src)
	a.Scale(-1)
	neg.Apply(b, src)
	if d := a.MaxAbsDiff(b); d != 0 {
		t.Fatalf("Scaled(-1) deviates from negated apply by %g", d)
	}
}

// fusedCase builds inputs shared by the fused-kernel equivalence tests.
func fusedCase(t *testing.T) (op *Operator, src, ref, aux *grid.Grid) {
	t.Helper()
	op = Laplacian(2, 0.5)
	src, ref = testGrid(10, 9, 8)
	aux = grid.New(10, 9, 8, 2)
	aux.FillFunc(func(i, j, k int) float64 { return float64((i+2*j+3*k)%7) - 3 })
	return op, src, ref, aux
}

func TestApplyDotMatchesUnfused(t *testing.T) {
	op, src, ref, _ := fusedCase(t)
	op.Apply(ref, src)
	want := src.Dot(ref)
	var prev float64
	for i, w := range []int{1, 2, 4, 8} {
		p := NewPool(w)
		dst := grid.New(10, 9, 8, 2)
		var acc detsum.Acc
		op.ApplyDotAcc(p, dst, src, &acc)
		got := acc.Round()
		if d := ref.MaxAbsDiff(dst); d != 0 {
			t.Fatalf("workers=%d: dst deviates by %g", w, d)
		}
		if rel := abs(got-want) / abs(want); rel > 1e-14 {
			t.Fatalf("workers=%d: dot %g vs unfused %g", w, got, want)
		}
		if i > 0 && got != prev {
			t.Fatalf("dot not deterministic across worker counts: %g vs %g", got, prev)
		}
		prev = got
		p.Close()
	}
}

func TestApplyResidualMatchesUnfused(t *testing.T) {
	op, src, ref, b := fusedCase(t)
	// Unfused: r = b - op(src).
	op.Apply(ref, src)
	ref.Scale(-1)
	ref.Axpy(1, b)
	want := ref.Dot(ref)
	var prev float64
	for i, w := range []int{1, 2, 4, 8} {
		p := NewPool(w)
		r := grid.New(10, 9, 8, 2)
		var acc detsum.Acc
		op.Residual(b).Apply(p, r, src, nil, &acc)
		sumsq := acc.Round()
		if d := ref.MaxAbsDiff(r); d != 0 {
			t.Fatalf("workers=%d: fused residual deviates by %g", w, d)
		}
		if rel := abs(sumsq-want) / abs(want); rel > 1e-14 {
			t.Fatalf("workers=%d: |r|^2 %g vs unfused %g", w, sumsq, want)
		}
		if i > 0 && sumsq != prev {
			t.Fatalf("|r|^2 not deterministic across worker counts")
		}
		prev = sumsq
		p.Close()
	}
}

// TestApplyResidualNilAcc: a nil accumulator (the V-cycle's, which has
// no use for the norm) leaves r with the same bits as a real one, on
// every view and worker count, with b a separate grid and with r = b.
func TestApplyResidualNilAcc(t *testing.T) {
	op, src, _, b := fusedCase(t)
	for _, w := range []int{1, 3} {
		p := NewPool(w)
		for rg, view := range []string{"Full", "Interior", "Shell"} {
			v := op.Over(Region(rg))
			for _, inPlace := range []bool{false, true} {
				residual := func(acc *detsum.Acc) []float64 {
					r := grid.New(10, 9, 8, 2)
					rhs := b
					if inPlace {
						r.CopyInteriorFrom(b)
						rhs = r
					}
					v.Residual(rhs).Apply(p, r, src, nil, acc)
					return r.Data()
				}
				var acc detsum.Acc
				want, got := residual(&acc), residual(nil)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("workers=%d %s r=b %v: r[%d] = %g with a nil acc, %g with one", w, view, inPlace, k, got[k], want[k])
					}
				}
			}
		}
		p.Close()
	}
}

func TestApplySmoothMatchesUnfused(t *testing.T) {
	op, src, ref, rhs := fusedCase(t)
	const c = 0.11
	// Unfused Jacobi step: dst = src + c*(rhs - op(src)).
	op.Apply(ref, src)
	ref.Scale(-1)
	ref.Axpy(1, rhs)
	want := src.Clone()
	want.Axpy(c, ref)
	p := NewPool(4)
	defer p.Close()
	dst := grid.New(10, 9, 8, 2)
	op.Smooth(rhs, c).Apply(p, dst, src, nil, nil)
	if d := want.MaxAbsDiff(dst); d > 1e-15 {
		t.Fatalf("fused smooth deviates by %g", d)
	}
}

func TestApplyStepMatchesUnfused(t *testing.T) {
	op, src, ref, v := fusedCase(t)
	// Unfused Hamiltonian-style application: t = op(src) + v.*src.
	op.Apply(ref, src)
	for i := 0; i < src.Nx; i++ {
		for j := 0; j < src.Ny; j++ {
			for k := 0; k < src.Nz; k++ {
				ref.Set(i, j, k, ref.At(i, j, k)+v.At(i, j, k)*src.At(i, j, k))
			}
		}
	}
	p := NewPool(4)
	defer p.Close()
	dst := grid.New(10, 9, 8, 2)
	op.ApplyStep(p, dst, src, v, 1, 0)
	if d := ref.MaxAbsDiff(dst); d != 0 {
		t.Fatalf("ApplyStep(1, 0) deviates by %g", d)
	}
	// Damped step dst = src - tau*t.
	const tau = 0.21
	want := src.Clone()
	want.Axpy(-tau, ref)
	op.ApplyStep(p, dst, src, v, -tau, 1)
	if d := want.MaxAbsDiff(dst); d != 0 {
		t.Fatalf("ApplyStep(-tau, 1) deviates by %g", d)
	}
	// Nil potential, general alpha/beta.
	op.Apply(ref, src)
	want = src.Clone()
	want.Scale(0.5)
	want.Axpy(2, ref)
	op.ApplyStep(p, dst, src, nil, 2, 0.5)
	if d := want.MaxAbsDiff(dst); d > 1e-15 {
		t.Fatalf("ApplyStep(2, 0.5, nil) deviates by %g", d)
	}
	// The recurrence term, accumulated into dst itself (prev == dst),
	// added last as the kernel does.
	want.Axpy(-0.3, dst)
	op.Step(nil, 2, 0.5, -0.3).Apply(p, dst, src, dst, nil)
	if d := want.MaxAbsDiff(dst); d > 1e-15 {
		t.Fatalf("Step(nil, 2, 0.5, -0.3) into its own prev deviates by %g", d)
	}
}

func TestTrafficCounterStreams(t *testing.T) {
	op := Laplacian(2, 1)
	src, dst := testGrid(8, 8, 8)
	pts := int64(src.Points())

	grid.ResetTraffic()
	op.Apply(dst, src)
	if got := grid.TrafficPoints(); got != 2*pts {
		t.Fatalf("Apply traffic = %d, want %d", got, 2*pts)
	}

	grid.ResetTraffic()
	b := grid.New(8, 8, 8, 2)
	op.Residual(b).Apply(nil, dst, src, nil, new(detsum.Acc))
	if got := grid.TrafficPoints(); got != 3*pts {
		t.Fatalf("ApplyResidual traffic = %d, want %d", got, 3*pts)
	}

	// The unfused residual chain: Apply + Scale + Axpy + self-Dot
	// (2 + 2 + 3 + 1 streams).
	grid.ResetTraffic()
	op.Apply(dst, src)
	dst.Scale(-1)
	dst.Axpy(1, b)
	dst.Dot(dst)
	if got := grid.TrafficPoints(); got != 8*pts {
		t.Fatalf("unfused residual chain traffic = %d, want %d", got, 8*pts)
	}
	grid.ResetTraffic()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
