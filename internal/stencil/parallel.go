package stencil

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/detsum"
	"repro/internal/grid"
	"repro/internal/topology"
)

// Pool is a set of persistent worker goroutines for shared-memory
// parallel grid sweeps — the in-process analogue of the paper's
// one-process-per-node, one-thread-per-core hybrid approaches. Workers
// are started once and park between fan-outs. A fan-out is data, not a
// closure: the caller writes it into the pool's one job slot (a fused
// sweep and its block, a BLAS-1 rangeOp, or an Exec Task), wakes the
// workers that are parked, and every participant, the caller included,
// claims shares from one atomic counter. The caller then waits only for
// the shares a worker claimed, so a worker that has not woken delays
// nothing, and a warmed fan-out allocates nothing.
//
// A nil *Pool is valid everywhere and runs serially on the caller, so
// solver code takes a pool unconditionally.
type Pool struct {
	workers int
	state   *poolState
}

// poolState is the job slot and its claiming protocol, shared between
// the Pool handle, its workers and the GC cleanup, so an unreferenced
// Pool's workers exit even without an explicit Close.
type poolState struct {
	// slot is held by the fan-out that owns job. A fan-out that finds
	// it held (nested or concurrent) runs every share on its caller.
	slot sync.Mutex
	job  job
	// next is job's next unclaimed share. Between jobs it sits at or
	// above the worker count, and fork resets it only after writing job,
	// so a claim that reads a share below the count holds a share of the
	// live job, whenever its worker woke.
	next atomic.Int32
	// left counts job's unfinished shares; whoever finishes the last one
	// signals done.
	left atomic.Int32
	// partials[i] takes share i's terms of a reducing job, whoever runs
	// it; len(partials) is the pool's worker count.
	partials []detsum.Acc
	panicked atomic.Pointer[any] // the first panic of one of job's shares
	wake     chan struct{}       // unbuffered: a send succeeds only on a parked worker
	done     chan struct{}       // buffered: the finish of job's last share
	once     sync.Once
}

func (s *poolState) close() { s.once.Do(func() { close(s.wake) }) }

// Kinds of job.
const (
	jobTask  = iota // Exec's Task
	jobSweep        // a Kernel's sweep over box (Kernel.Apply)
	jobRange        // a BLAS-1 driver's rangeOp (sweepRange)
)

// job is one fan-out as data: n items split into the pool's shares by
// topology.Split, share i running t.Share(i, lo, hi), sweep s over
// planes [lo, hi) of box, or r over planes [lo, hi). reduce marks a job
// whose shares take terms into accumulators. The caller's own
// accumulator stays out of it, so a job in the slot does not make it
// escape.
type job struct {
	kind   int
	n      int
	reduce bool
	t      Task
	s      sweep
	box    Block
	r      rangeOp
}

// share runs share i of j's split into workers shares, adding a
// reduction's terms into acc. An empty share does nothing.
func (j *job) share(workers, i int, acc *detsum.Acc) {
	lo, ln := topology.Split(j.n, workers, i)
	if ln == 0 {
		return
	}
	switch j.kind {
	case jobSweep:
		b := j.box
		b.X0, b.X1 = j.box.X0+lo, j.box.X0+lo+ln
		j.s.run(acc, b)
	case jobRange:
		j.r.run(acc, lo, lo+ln)
	default:
		j.t.Share(i, lo, lo+ln)
	}
}

// NewPool starts a pool with the given number of workers (>= 1). The
// calling goroutine takes part in every fan-out, so workers-1
// goroutines are spawned.
func NewPool(workers int) *Pool {
	if workers < 1 {
		panic(fmt.Sprintf("stencil: pool with %d workers", workers))
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	st := &poolState{
		partials: make([]detsum.Acc, workers),
		wake:     make(chan struct{}),
		done:     make(chan struct{}, 1),
	}
	st.next.Store(int32(workers))
	p.state = st
	for w := 1; w < workers; w++ {
		go st.work()
	}
	// Backstop: if the pool is dropped without Close, release the
	// workers when the handle becomes unreachable.
	runtime.AddCleanup(p, func(s *poolState) { s.close() }, st)
	return p
}

// work is a worker's loop: parked at wake, then claiming shares of the
// live job.
func (s *poolState) work() {
	for range s.wake {
		s.claim()
	}
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

// Task is one fan-out of Exec: Share(i, lo, hi) runs share i, the items
// [lo, hi). A pointer to long-lived storage satisfies it without an
// allocation per fan-out.
type Task interface{ Share(i, lo, hi int) }

// Exec splits the index range [0, n) across the pool's workers with
// topology.Split and runs t.Share(i, lo, hi) for every non-empty share i,
// returning when all shares are done. Share i keeps index i whichever
// goroutine runs it, the caller or a worker. A nested or concurrent
// Exec, which finds the pool's job slot taken, runs every share on its
// own caller in ascending order, so it cannot deadlock; the
// partitioning, and therefore any per-share result, is the same either
// way.
//
// A panic in any share is captured and re-raised on the caller after
// every share has finished (first panic wins), so a failure inside a
// worker goroutine — an MPI rank-failure error in a hybrid solver, say
// — unwinds the calling rank instead of crashing the process, and the
// pool stays usable.
//
// t is stored in the pool's job slot, so it escapes to the heap: a
// pointer into storage the caller keeps (internal/gpaw's Dist scratch,
// internal/core's Engine) costs no allocation, which
// TestFusedKernelsAllocationFree pins on one, two and four workers.
//
//gpaw:hotpath
func (p *Pool) Exec(n int, t Task) {
	if p.Workers() <= 1 || n <= 1 {
		if n > 0 {
			t.Share(0, 0, n)
		}
		return
	}
	j := job{kind: jobTask, n: n, t: t}
	p.fork(&j, nil)
}

// fork runs j across the pool (which has more than one worker) and
// merges a reducing job's partials into acc in share order. It takes
// the job slot, or, finding it taken, runs every share of j on the
// caller with their terms straight into acc: the sums are exact, so
// the bits are the same.
//
//gpaw:hotpath
func (p *Pool) fork(j *job, acc *detsum.Acc) {
	s := p.state
	if !s.slot.TryLock() {
		for i := range p.workers {
			j.share(p.workers, i, acc)
		}
		return
	}
	j.reduce = acc != nil
	s.job = *j
	if j.reduce {
		for i := range s.partials {
			s.partials[i].Reset()
		}
	}
	s.left.Store(int32(p.workers))
	s.next.Store(0)
	// Wake at most one parked worker per other non-empty share; the
	// first send that finds none parked ends the wake-up.
wake:
	for range min(j.n, p.workers) - 1 {
		select {
		case s.wake <- struct{}{}:
		default:
			break wake
		}
	}
	s.claim()
	<-s.done
	s.job = job{}
	pv := s.panicked.Swap(nil)
	s.slot.Unlock()
	if pv != nil {
		panic(*pv)
	}
	if acc != nil {
		for i := range s.partials {
			acc.Merge(&s.partials[i])
		}
	}
}

// claim runs shares of the live job until none is left to claim.
// Whoever finishes the job's last share, the caller included, signals
// done.
//
//gpaw:hotpath
func (s *poolState) claim() {
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.partials) {
			return
		}
		s.run(i)
	}
}

// run runs share i of the job, a reduction's terms into partial i.
// finish counts it done even if it panics or exits its goroutine.
func (s *poolState) run(i int) {
	defer s.finish()
	var acc *detsum.Acc
	if s.job.reduce {
		acc = &s.partials[i]
	}
	s.job.share(len(s.partials), i, acc)
}

// finish is run's deferred epilogue: it keeps the job's first panic for
// the caller, and the finish of the job's last share signals done.
func (s *poolState) finish() {
	if r := recover(); r != nil {
		v := r
		s.panicked.CompareAndSwap(nil, &v)
	}
	if s.left.Add(-1) == 0 {
		s.done <- struct{}{}
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
	Kernel{op: op, tiled: true}.Apply(p, dst, src, nil, nil)
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
// one worker, else split across the workers (fork).
//
//gpaw:hotpath
func (p *Pool) sweepRange(r rangeOp, acc *detsum.Acc) {
	if p.Workers() == 1 {
		r.run(acc, 0, r.g.Nx)
		return
	}
	j := job{kind: jobRange, n: r.g.Nx, r: r}
	p.fork(&j, acc)
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
