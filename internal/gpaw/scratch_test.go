package gpaw

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// eigenIterationAllocs is the number of heap allocations one warmed
// eigen iteration (damped step + orthonormalize + RayleighRitz) makes on
// a one-rank Dist with a one-worker pool at m = 4: the m x m matrices of
// linalg/pblas (rows allocated one by one), the trace-free mpi.Self
// collectives and the closures handed to Pool.Exec. It is a ceiling, not
// a target — what the test pins is that the count is small and constant
// and that none of it is a grid.
const eigenIterationAllocs = 128

// TestEigenIterationAllocatesNoGrids pins the eigen loop's allocation
// contract: once one iteration has grown the Dist's scratch, the next
// ones allocate a small constant number of small objects and not one
// grid — the per-iteration bytes stay below a single state's storage.
func TestEigenIterationAllocatesNoGrids(t *testing.T) {
	dims := topology.Dims{24, 24, 24}
	const m = 4
	d := selfDist(dims, 2, Dirichlet)
	d.pool = nil // one worker: AllocsPerRun counts this goroutine only
	h := NewDistHamiltonian(d, 0.6, HarmonicPotential(dims, 0.6, 1))
	psis := InitGuess(m, [3]int{dims[0], dims[1], dims[2]}, 2)
	tau := 1 / h.SpectralBound()
	iteration := func() {
		outs := d.scratchStates(psis)
		h.applyStates(outs, psis, -tau, 1)
		swapStates(psis, outs)
		if err := d.orthonormalize(m, psis); err != nil {
			t.Fatal(err)
		}
		if _, err := h.RayleighRitz(m, psis); err != nil {
			t.Fatal(err)
		}
	}
	iteration() // grows the scratch

	allocs := testing.AllocsPerRun(5, iteration)
	if allocs > eigenIterationAllocs {
		t.Errorf("warmed eigen iteration makes %.0f allocations, want <= %d", allocs, eigenIterationAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	iteration()
	runtime.ReadMemStats(&after)
	oneGrid := uint64(8 * len(psis[0].Data()))
	if got := after.TotalAlloc - before.TotalAlloc; got >= oneGrid {
		t.Errorf("warmed eigen iteration allocated %d bytes, a grid is %d: some grid.New ran", got, oneGrid)
	}
	t.Logf("warmed eigen iteration: %.0f allocations, %d bytes (one state grid: %d bytes)",
		allocs, after.TotalAlloc-before.TotalAlloc, oneGrid)
}

// solveBits runs the eigensolver for m states on d and returns, on world
// rank 0 (nil elsewhere), the bits of the eigenvalues and of every
// gathered global state.
func solveBits(t *testing.T, d *Dist, m int, global topology.Dims) []uint64 {
	const h = 0.5
	es := NewEigenSolver(NewDistHamiltonian(d, h, d.ScatterReplicated(HarmonicPotential(global, h, 1))))
	es.Tol = 1e-6
	es.MaxIter = 400
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
	fresh := func(p problem) []uint64 { return solveBits(t, selfDist(p.global, 2, Dirichlet), p.m, p.global) }
	wantA, wantB := fresh(a), fresh(b)

	// One Dist reused across state counts: 4 states, then 2, then 4
	// again; the scratch set shrinks and regrows.
	d := selfDist(a.global, 2, Dirichlet)
	first := solveBits(t, d, a.m, a.global)
	solveBits(t, d, 2, a.global)
	if again := solveBits(t, d, a.m, a.global); !slices.Equal(first, wantA) || !slices.Equal(again, wantA) {
		t.Errorf("one Dist reused across state counts deviates from a fresh context")
	}
	// One context reused across state shapes: orthonormalization reads no
	// halo, so the same one-rank Dist takes halo-2 and halo-0 states.
	for _, halo := range []int{2, 0, 2} {
		psis, ref := InitGuess(3, [3]int{8, 8, 8}, halo), InitGuess(3, [3]int{8, 8, 8}, halo)
		if err := d.orthonormalize(3, psis); err != nil {
			t.Fatal(err)
		}
		if err := Orthonormalize(ref); err != nil {
			t.Fatal(err)
		}
		for i := range psis {
			if psis[i].H != halo || psis[i].MaxAbsDiff(ref[i]) != 0 {
				t.Errorf("halo %d: state %d deviates after reusing a Dist across state shapes", halo, i)
			}
		}
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
