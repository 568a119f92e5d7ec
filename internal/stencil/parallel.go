package stencil

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/detsum"
	"repro/internal/grid"
	"repro/internal/topology"
)

// Pool is a set of persistent worker goroutines for shared-memory
// parallel grid sweeps — the in-process analogue of the paper's
// one-process-per-node, one-thread-per-core hybrid approaches. Workers
// are started once and reused for every Exec, so the per-operation
// synchronization cost is a channel handoff and a join rather than
// goroutine creation.
//
// A nil *Pool is valid everywhere and runs serially on the caller, so
// solver code takes a pool unconditionally.
type Pool struct {
	workers int
	state   *poolState
}

// poolState is shared between the Pool handle, its workers and the GC
// cleanup, so an unreferenced Pool's workers exit even without an
// explicit Close.
type poolState struct {
	tasks chan func()
	once  sync.Once
}

func (s *poolState) close() { s.once.Do(func() { close(s.tasks) }) }

// NewPool starts a pool with the given number of workers (>= 1). The
// calling goroutine acts as worker 0 during Exec, so workers-1
// goroutines are spawned.
func NewPool(workers int) *Pool {
	if workers < 1 {
		panic(fmt.Sprintf("stencil: pool with %d workers", workers))
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	// Unbuffered: a handoff succeeds only when a worker is parked at
	// the receive, so a nested or concurrent Exec can never strand a
	// task in a buffer no idle worker will drain.
	st := &poolState{tasks: make(chan func())}
	p.state = st
	for w := 1; w < workers; w++ {
		go func() {
			for f := range st.tasks {
				f()
			}
		}()
	}
	// Backstop: if the pool is dropped without Close, release the
	// workers when the handle becomes unreachable.
	runtime.AddCleanup(p, func(s *poolState) { s.close() }, st)
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, sized to GOMAXPROCS at first
// use. It is never closed; it is the default pool of the gpaw solvers.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close releases the worker goroutines. Exec must not be called after
// Close. Close is idempotent and safe on a nil pool.
func (p *Pool) Close() {
	if p != nil && p.state != nil {
		p.state.close()
	}
}

// Exec splits the index range [0, n) across the pool's workers with
// topology.Split and runs fn(worker, lo, hi) for every non-empty share,
// returning when all shares are done. The caller executes worker 0's
// share. A share whose handoff finds no idle worker (nested or
// concurrent Exec, or a worker not yet parked at the receive) is
// deferred and run on the caller after every other share has been
// dispatched, so one missed handoff never delays the rest and a nested
// Exec cannot deadlock — the partitioning, and therefore any per-share
// result, is unchanged either way.
//
// A panic in any share is captured and re-raised on the caller after
// every share has finished (first panic wins), so a failure inside a
// worker goroutine — an MPI rank-failure error in a hybrid solver, say
// — unwinds the calling rank instead of crashing the process.
//
// fn leaks to the worker goroutines, so a closure literal handed to
// Exec is heap-allocated wherever it is written, even when the pool
// turns out to have one worker. The package's hot paths therefore never
// reach Exec on a one-worker pool: the fused kernels (sweep) and the
// BLAS-1 drivers (sweepRange) run such a pool's whole range on the
// caller, from data rather than a closure, and allocate nothing there.
// Callers with a long-lived context hand Exec one func built once
// instead (internal/gpaw's Dist.exec).
func (p *Pool) Exec(n int, fn func(worker, lo, hi int)) {
	w := p.Workers()
	if w <= 1 || n <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	run := func(worker, lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
			}
		}()
		fn(worker, lo, hi)
	}
	var deferred []func()
	for i := 1; i < w; i++ {
		lo, ln := topology.Split(n, w, i)
		if ln == 0 {
			continue
		}
		i, lo, hi := i, lo, lo+ln
		wg.Add(1)
		task := func() {
			defer wg.Done()
			run(i, lo, hi)
		}
		select {
		case p.state.tasks <- task:
		default:
			deferred = append(deferred, task)
		}
	}
	if lo, ln := topology.Split(n, w, 0); ln > 0 {
		run(0, lo, lo+ln)
	}
	for _, task := range deferred {
		task()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Cache-block extents for the tiled stencil traversal: within a
// worker's plane range the (j, k) loop walks tiles so the 2R+1 source
// planes in flight fit in cache while i advances (2.5-D blocking).
// tileK exceeds common z extents, so rows usually stay contiguous and
// only very wide grids are split in z.
const (
	tileJ = 32
	tileK = 2048
)

// ApplyParallel is Apply with the sweep split across the pool's workers
// and cache-blocked over (j, k) tiles. Halos must have been filled,
// exactly as for Apply; the result is bit-identical to Apply for every
// worker count.
func (op *Operator) ApplyParallel(p *Pool, dst, src *grid.Grid) {
	op.checkFused("ApplyParallel", src, dst)
	k := op.kernel(dst, src)
	k.tiled = true
	op.sweep(p, k, 2, nil)
}

// The drivers below run the grid package's range-based BLAS-1 sweeps
// across the pool. Reductions (Sum, Dot, AxpyDot) accumulate one
// detsum.Acc per worker and merge them exactly, so their results are
// bit-identical to the serial grid methods for every worker count —
// and, because the exact merge is partition-independent, to any MPI
// rank decomposition of the same element set. On a one-worker pool they
// allocate nothing (TestFusedKernelsAllocationFree).

// Kinds of rangeOp.
const (
	opAxpy = iota
	opAxpyScale
	opScale
	opAddScalar
	opCopy
	opSum
	opDot
	opAxpyDot
)

// rangeOp is one BLAS-1 driver's sweep as data: its kind, the grid g it
// writes or reduces, the second operand x and the constants a and s.
type rangeOp struct {
	kind int
	g, x *grid.Grid
	a, s float64
}

// run sweeps x planes [i0, i1) of r.g, adding a reduction's terms into
// acc.
func (r rangeOp) run(acc *detsum.Acc, i0, i1 int) {
	switch r.kind {
	case opAxpy:
		r.g.AxpyRange(r.a, r.x, i0, i1)
	case opAxpyScale:
		r.g.AxpyScaleRange(r.a, r.x, r.s, i0, i1)
	case opScale:
		r.g.ScaleRange(r.a, i0, i1)
	case opAddScalar:
		r.g.AddScalarRange(r.a, i0, i1)
	case opCopy:
		r.g.CopyInteriorRange(r.x, i0, i1)
	case opSum:
		r.g.SumAccRange(i0, i1, acc)
	case opDot:
		r.g.DotAccRange(r.x, i0, i1, acc)
	case opAxpyDot:
		r.g.AxpyDotAccRange(r.a, r.x, i0, i1, acc)
	}
}

// sweepRange runs r over every x plane of r.g: on the caller when p has
// one worker, else split across the workers (execAcc).
//
//gpaw:hotpath
func (p *Pool) sweepRange(r rangeOp, acc *detsum.Acc) {
	if p.Workers() == 1 {
		r.run(acc, 0, r.g.Nx)
		return
	}
	p.execAcc(r.g.Nx, acc, r.run)
}

// execAcc is Exec for a sweep that may reduce: body adds its share's
// terms into the accumulator it is handed, a per-worker partial merged
// into acc afterwards. A nil acc takes no terms: body is handed nil.
func (p *Pool) execAcc(n int, acc *detsum.Acc, body func(a *detsum.Acc, lo, hi int)) {
	if acc == nil {
		p.Exec(n, func(_, lo, hi int) { body(nil, lo, hi) })
		return
	}
	accs := make([]detsum.Acc, p.Workers())
	p.Exec(n, func(w, lo, hi int) { body(&accs[w], lo, hi) })
	for w := range accs {
		acc.Merge(&accs[w])
	}
}

// Axpy computes g += a*x across the pool.
//
//gpaw:hotpath
func (p *Pool) Axpy(g *grid.Grid, a float64, x *grid.Grid) {
	p.sweepRange(rangeOp{kind: opAxpy, g: g, x: x, a: a}, nil)
}

// AxpyScale computes g = s*g + a*x across the pool.
//
//gpaw:hotpath
func (p *Pool) AxpyScale(g *grid.Grid, a float64, x *grid.Grid, s float64) {
	p.sweepRange(rangeOp{kind: opAxpyScale, g: g, x: x, a: a, s: s}, nil)
}

// Scale computes g *= a across the pool.
//
//gpaw:hotpath
func (p *Pool) Scale(g *grid.Grid, a float64) {
	p.sweepRange(rangeOp{kind: opScale, g: g, a: a}, nil)
}

// AddScalar adds v to every interior point across the pool.
//
//gpaw:hotpath
func (p *Pool) AddScalar(g *grid.Grid, v float64) {
	p.sweepRange(rangeOp{kind: opAddScalar, g: g, a: v}, nil)
}

// Copy copies src's interior into g across the pool.
//
//gpaw:hotpath
func (p *Pool) Copy(g, src *grid.Grid) {
	p.sweepRange(rangeOp{kind: opCopy, g: g, x: src}, nil)
}

// Sum returns the interior sum, reduced exactly.
func (p *Pool) Sum(g *grid.Grid) float64 {
	var acc detsum.Acc
	p.SumAcc(g, &acc)
	return acc.Round()
}

// SumAcc accumulates the interior sum into acc across the pool.
//
//gpaw:hotpath
func (p *Pool) SumAcc(g *grid.Grid, acc *detsum.Acc) {
	p.sweepRange(rangeOp{kind: opSum, g: g}, acc)
}

// Dot returns <g, o>, reduced exactly.
func (p *Pool) Dot(g, o *grid.Grid) float64 {
	var acc detsum.Acc
	p.DotAcc(g, o, &acc)
	return acc.Round()
}

// DotAcc accumulates <g, o> into acc across the pool.
//
//gpaw:hotpath
func (p *Pool) DotAcc(g, o *grid.Grid, acc *detsum.Acc) {
	p.sweepRange(rangeOp{kind: opDot, g: g, x: o}, acc)
}

// AxpyDot computes g += a*x and returns the updated <g, g> in the same
// sweep, reduced exactly.
//
//gpaw:hotpath
func (p *Pool) AxpyDot(g *grid.Grid, a float64, x *grid.Grid) float64 {
	var acc detsum.Acc
	p.AxpyDotAcc(g, a, x, &acc)
	return acc.Round()
}

// AxpyDotAcc is AxpyDot accumulating the updated <g, g> into acc.
//
//gpaw:hotpath
func (p *Pool) AxpyDotAcc(g *grid.Grid, a float64, x *grid.Grid, acc *detsum.Acc) {
	p.sweepRange(rangeOp{kind: opAxpyDot, g: g, x: x, a: a}, acc)
}
