package gpaw

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// scfIterationAllocs is the number of heap allocations a warmed SCF
// iteration may make on one, two and four workers: none. Every fused
// sweep is data (a stencil Kernel), run on the calling goroutine or
// posted to the pool's job slot, every one-grid BLAS-1 pass runs on its
// caller, the engine gets the Dist's one compute func and the pool
// pointer Tasks into Dist scratch,
// the Hamiltonian and the negated Poisson operator are built once per
// run, the m x m algebra runs in the Dist's subspace storage and the
// Pulay weights in the mixer's, and the one-value reductions use the
// communicator's scratch.
const scfIterationAllocs = 0

// TestEigenIterationAllocatesNoGrids pins the SCF loop's allocation
// contract: once the first iterations have grown the Dist's scratch, a
// whole iteration — filter pass, subspace step, density, mix, Hartree
// solve with its V-cycles, potential update — allocates nothing, on a
// one-worker pool and on two- and four-worker ones, whose fan-outs are
// posted to the pool's job slot as data. The V-cycle hierarchy is part
// of that scratch: the first solve builds it, NewDist does not.
func TestEigenIterationAllocatesNoGrids(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { testEigenIterationAllocs(t, workers) })
	}
}

func testEigenIterationAllocs(t *testing.T, workers int) {
	dims := topology.Dims{24, 24, 24}
	d := SelfDist(dims, Dirichlet)
	d.pool = nil // one worker: every allocation is this goroutine's
	if workers > 1 {
		d.pool = stencil.NewPool(workers)
		defer d.pool.Close()
	}
	sys := scfSystem(dims, 0.6)
	sys.Electrons = 8
	scf := NewDistSCF(d, sys)
	scf.Tol, scf.MaxIter = 0, 6 // never converges: six full iterations
	if d.mg != nil {
		t.Fatal("NewDist built the multigrid hierarchy; the first solve should")
	}
	// Waking a pool worker can make the Go runtime allocate for its own
	// scheduler: a thread's bookkeeping when every thread is busy
	// (warmThreads starts idle ones up front), or a parking record (a
	// sudog) after a collection has emptied the runtime's cache of them.
	// So on more than one worker every allocation is profiled, and a
	// warmed iteration's count is forgiven only where the profile puts
	// each allocation of those iterations at one of those sites
	// (runtimeAllocSites) or on one of the runtime's own goroutines.
	warmThreads(runtime.GOMAXPROCS(0) + workers)
	const first = 3 // iterations 1 and 2 grow the scratch
	var before, after map[[32]uintptr]int64
	if workers > 1 {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1
	}
	// marks[it] is the heap odometer at the top of iteration it, so
	// iteration it allocated marks[it+1] - marks[it].
	marks := make([]runtime.MemStats, 0, scf.MaxIter) // sized up front: growing it would count
	scf.OnIteration = func(int) {
		if workers > 1 && len(marks) == first-1 {
			before = heapProfile()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		marks = append(marks, ms)
		if workers > 1 && len(marks) == scf.MaxIter {
			after = heapProfile()
		}
	}
	if res, _ := scf.Run(); res == nil || res.Iterations != scf.MaxIter {
		t.Fatalf("SCF did not run its %d iterations: %+v", scf.MaxIter, res)
	}
	oneGrid := uint64(8 * len(d.NewLocalGrid().Data()))
	var over uint64 // allocations beyond scfIterationAllocs, over all warmed iterations
	for it := first; it < len(marks); it++ {
		bytes := marks[it].TotalAlloc - marks[it-1].TotalAlloc
		allocs := marks[it].Mallocs - marks[it-1].Mallocs
		if bytes >= oneGrid {
			t.Errorf("warmed SCF iteration %d allocated %d bytes, a grid is %d: some grid.New ran", it, bytes, oneGrid)
		}
		if allocs > scfIterationAllocs {
			over += allocs - scfIterationAllocs
			if workers == 1 {
				t.Errorf("warmed SCF iteration %d makes %d allocations, want <= %d", it, allocs, scfIterationAllocs)
			}
		}
		t.Logf("warmed SCF iteration %d: %d allocations, %d bytes (one state grid: %d bytes)", it, allocs, bytes, oneGrid)
	}
	if workers == 1 {
		return
	}
	own, elsewhere := allocSites(before, after)
	if len(elsewhere) > 0 || own < over {
		t.Errorf("warmed SCF iterations make %d allocations beyond %d each; the profile puts %d at the runtime's own sites and these elsewhere: %v",
			over, scfIterationAllocs, own, elsewhere)
	} else if over > 0 {
		t.Logf("%d allocations of the warmed iterations are the runtime's own", over)
	}
}

// TestSerialApplyAllocatesNothing: a warmed H·psi on a one-rank Dist,
// the serial operator, allocates nothing under either boundary
// condition — the context, its halo engine and the kernel are built
// once, not per Apply.
func TestSerialApplyAllocatesNothing(t *testing.T) {
	dims := topology.Dims{12, 10, 8}
	for _, bc := range []Boundary{Dirichlet, Periodic} {
		d := SelfDist(dims, bc)
		d.pool = nil // one worker: every allocation is this goroutine's
		ham := NewDistHamiltonian(d, 0.5, HarmonicPotential(dims, 0.5, 1))
		psi, dst := d.InitGuessBand(1, [3]int(dims))[0], d.NewLocalGrid()
		ham.Apply(dst, psi)
		if n := testing.AllocsPerRun(20, func() { ham.Apply(dst, psi) }); n != 0 {
			t.Errorf("%v: a warmed serial Apply makes %g allocations, want 0", bc, n)
		}
	}
}

// runtimeAllocSites are the Go runtime functions under which it
// allocates its own scheduler bookkeeping: a new thread's M, signal
// stack and profiling buffers, and a goroutine's parking record.
var runtimeAllocSites = []string{"runtime.allocm", "runtime.acquireSudog"}

// heapProfile returns the heap profile's allocation counts by stack as
// of a fresh collection, so every allocation made before the call is in
// it (at runtime.MemProfileRate 1, every one is sampled).
func heapProfile() map[[32]uintptr]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	objs := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		objs[r.Stack0] += r.AllocObjects
	}
	return objs
}

// allocSites sorts the allocations between two heap profiles: own
// counts those under a runtimeAllocSites function or on a goroutine of
// the runtime's own, whose stack has no frame outside package runtime
// (the scavenger growing its timer heap after heapProfile's collection,
// say), and elsewhere names the call stacks of the rest. heapProfile's
// own allocations, made after its collection, are left out.
func allocSites(before, after map[[32]uintptr]int64) (own uint64, elsewhere []string) {
	for stk, n := range after {
		if n -= before[stk]; n <= 0 {
			continue
		}
		pcs := stk[:]
		if end := slices.Index(pcs, 0); end >= 0 {
			pcs = pcs[:end]
		}
		var fns []string
		frames := runtime.CallersFrames(pcs)
		for more := len(pcs) > 0; more; {
			var f runtime.Frame
			f, more = frames.Next()
			fns = append(fns, f.Function)
		}
		inRuntime := func(fn string) bool { return strings.HasPrefix(fn, "runtime.") }
		switch {
		case slices.ContainsFunc(fns, func(fn string) bool { return slices.Contains(runtimeAllocSites, fn) }),
			len(fns) > 0 && !slices.ContainsFunc(fns, func(fn string) bool { return !inRuntime(fn) }):
			own += uint64(n)
		case !slices.ContainsFunc(fns, func(fn string) bool { return strings.HasSuffix(fn, ".heapProfile") }):
			elsewhere = append(elsewhere, fmt.Sprintf("%d at %s", n, strings.Join(fns[:min(len(fns), 6)], " < ")))
		}
	}
	return own, elsewhere
}

// warmThreads leaves n idle OS threads with the Go runtime. A fan-out
// that wakes a worker while every thread is busy makes the runtime
// start one more, and a new thread's bookkeeping (its M, signal stack
// and profiling buffers: 5 objects, ≈ 5 KB) counts in the heap
// odometer of whichever iteration it lands in. The runtime keeps idle
// threads for reuse, so starting them up front leaves the count to
// the SCF loop's own.
func warmThreads(n int) {
	var locked, exited sync.WaitGroup
	release := make(chan struct{})
	locked.Add(n)
	exited.Add(n)
	for range n {
		go func() {
			defer exited.Done()
			// Locked, each goroutine parks on a thread of its own.
			runtime.LockOSThread()
			locked.Done()
			<-release
			runtime.UnlockOSThread()
		}()
	}
	locked.Wait()
	close(release)
	exited.Wait()
}

// TestDistSCFIterationAllocatesNothing holds a whole band x domain world
// to the one-worker contract: on 2 band groups x 2x1x1 ranks with
// one-worker pools, every approach's warmed SCF iteration — halo
// exchanges, band gathers and broadcasts, reductions and the v_H
// broadcast included — allocates nothing anywhere in the process. The
// ranks meet at the top of each iteration in a rendezvous outside the
// MPI runtime, where the odometer is read with every rank parked, so
// the difference of two readings is one iteration's allocations of all
// four ranks. Garbage the SCF loop makes would show in every iteration;
// what the transport's pools grow while they reach the high-water mark
// of a rarer skew (envelopes, requests and their timeout timers) and
// what the Go runtime allocates for itself (the first collection's
// workers) show in a few only, so the test asks that some warmed
// iteration reads 0 and logs the rest, as the transport's own skewed
// exchange test does.
func TestDistSCFIterationAllocatesNothing(t *testing.T) {
	const bands, iters = 2, 12
	global, procs := topology.Dims{12, 8, 8}, topology.Dims{2, 1, 1}
	for _, a := range core.Approaches {
		ranks := bands * procs.Count()
		marks := make([]runtime.MemStats, 0, iters) // sized up front: growing it would count
		meet := newRendezvous(ranks)
		err := runRanks(ranks, modeFor(a), func(c *mpi.Comm) {
			d, err := NewDist(c, DistConfig{Global: global, Procs: procs, Bands: bands, Halo: 2,
				BC: Dirichlet, Approach: a, Threads: 1, Batch: 2})
			if err != nil {
				panic(err)
			}
			defer d.Close()
			sys := scfSystem(global, 0.5)
			sys.Electrons = 6
			scf := NewDistSCF(d, sys)
			scf.Tol, scf.MaxIter = 0, iters // never converges
			scf.OnIteration = func(int) {
				meet.wait()
				if c.Rank() == 0 {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					marks = append(marks, ms)
				}
				meet.wait()
			}
			if res, _ := scf.Run(); res == nil || res.Iterations != iters {
				panic(fmt.Sprintf("SCF did not run its %d iterations", iters))
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		var counts []uint64
		for it := 3; it < len(marks); it++ { // iterations 1 and 2 grow the scratch
			counts = append(counts, marks[it].Mallocs-marks[it-1].Mallocs)
		}
		if slices.Min(counts) > scfIterationAllocs {
			t.Errorf("%v: every warmed SCF iteration allocates across the world: %v from iteration 3", a, counts)
		}
		t.Logf("%v: world-wide allocations per warmed SCF iteration from iteration 3: %v", a, counts)
	}
}

// rendezvous is a reusable meeting point of n goroutines outside the
// MPI runtime: wait returns once all n have called it.
type rendezvous struct {
	mu      sync.Mutex
	cond    sync.Cond
	n, here int
	round   int
}

func newRendezvous(n int) *rendezvous {
	r := &rendezvous{n: n}
	r.cond.L = &r.mu
	return r
}

func (r *rendezvous) wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	round := r.round
	if r.here++; r.here == r.n {
		r.here, r.round = 0, round+1
		r.cond.Broadcast()
		return
	}
	for round == r.round {
		r.cond.Wait()
	}
}

// solveBits runs the eigensolver for m states on d and returns, on world
// rank 0 (nil elsewhere), the bits of the eigenvalues and of every
// gathered global state.
func solveBits(t *testing.T, d *Dist, m int, global topology.Dims) []uint64 {
	const h = 0.5
	es := NewEigenSolver(NewDistHamiltonian(d, h, d.ScatterReplicated(HarmonicPotential(global, h, 1))))
	es.Tol = 1e-6
	psis := d.InitGuessBand(m, [3]int{global[0], global[1], global[2]})
	eig, err := es.Solve(m, psis)
	if err != nil {
		t.Error(err)
		return nil
	}
	states := d.GatherBandStates(m, psis)
	if d.World.Rank() != 0 {
		return nil
	}
	var bits []uint64
	for _, e := range eig {
		bits = append(bits, math.Float64bits(e))
	}
	for _, g := range states {
		for _, v := range g.InteriorSlice() {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestEigenScratchIsPerDist runs solves of different state counts and
// re-tiled extents through one process — back to back on one Dist, and
// concurrently on the ranks of a band x domain world — and holds every
// one to the bits a fresh context produces. Scratch that outlived its
// shape, or that two Dists or two ranks shared, would corrupt a state
// (and trip the race detector this test runs under in CI).
func TestEigenScratchIsPerDist(t *testing.T) {
	type problem struct {
		global topology.Dims
		m      int
	}
	a, b := problem{topology.Dims{8, 8, 8}, 4}, problem{topology.Dims{10, 6, 8}, 3}
	fresh := func(p problem) []uint64 { return solveBits(t, SelfDist(p.global, Dirichlet), p.m, p.global) }
	wantA, wantB := fresh(a), fresh(b)

	// One Dist reused across state counts: 4 states, then 2, then 4
	// again; the scratch set shrinks and regrows.
	d := SelfDist(a.global, Dirichlet)
	first := solveBits(t, d, a.m, a.global)
	solveBits(t, d, 2, a.global)
	if again := solveBits(t, d, a.m, a.global); !slices.Equal(first, wantA) || !slices.Equal(again, wantA) {
		t.Errorf("one Dist reused across state counts deviates from a fresh context")
	}
	// Several layouts in one process, each rank with scratch of its own:
	// 2 band groups x 2 domain ranks of problem A, 1 x 2 of the re-tiled
	// problem B, then A again on another tiling.
	for _, run := range []struct {
		p     problem
		bands int
		procs topology.Dims
		want  []uint64
	}{{a, 2, topology.Dims{1, 1, 2}, wantA}, {b, 1, topology.Dims{1, 2, 1}, wantB}, {a, 1, topology.Dims{2, 1, 1}, wantA}} {
		runBand(t, run.p.global, run.procs, run.bands, Dirichlet, core.HybridMultiple, func(d *Dist) {
			if bits := solveBits(t, d, run.p.m, run.p.global); bits != nil && !slices.Equal(bits, run.want) {
				t.Errorf("bands %d procs %v: solve deviates from the one-rank bits", run.bands, run.procs)
			}
		})
	}
}
