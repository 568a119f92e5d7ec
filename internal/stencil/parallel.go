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
// sweep and its block, or an Exec Task), wakes the workers that are
// parked, and every participant, the caller included, claims shares
// from one atomic counter. The caller then waits only for the shares a
// worker claimed, so a worker that has not woken delays nothing, and a
// warmed fan-out allocates nothing.
//
// The pool splits only work that pays a fork-join: stencil sweeps and
// Exec Tasks (gpaw's pair dots, rotation and level transfers). An
// elementwise pass over one grid (grid's BLAS-1 forms) runs on its caller.
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

// job is one fan-out as data: n items split into the pool's shares by
// topology.Split, share i running Exec's t.Share(i, lo, hi) or, with no
// t, a Kernel's sweep s over planes [lo, hi) of box. reduce marks a job
// whose shares take terms into accumulators. The caller's own
// accumulator stays out of it, so a job in the slot does not make it
// escape.
type job struct {
	n      int
	reduce bool
	t      Task
	s      sweep
	box    Block
}

// share runs share i of j's split into workers shares, adding a
// reduction's terms into acc. An empty share does nothing.
func (j *job) share(workers, i int, acc *detsum.Acc) {
	lo, ln := topology.Split(j.n, workers, i)
	if ln == 0 {
		return
	}
	if j.t != nil {
		j.t.Share(i, lo, lo+ln)
		return
	}
	b := j.box
	b.X0, b.X1 = j.box.X0+lo, j.box.X0+lo+ln
	j.s.run(acc, b)
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
	j := job{n: n, t: t}
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
