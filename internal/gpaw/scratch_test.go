package gpaw

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// scfIterationAllocs is the number of heap allocations one warmed SCF
// iteration makes on a one-rank Dist with a one-worker pool at m = 4 + 1
// states: the m x m matrices of linalg, the operators
// NewDistHamiltonian and the CG solve derive, the closures handed to
// Pool.Exec and the engine, and a z-row of stencil scratch per sweep —
// some 45 sweeps of the filter pass and, at about 9 preconditioned
// iterations of 30 V-cycle sweeps each, 290 of the Hartree solve. The
// mpi.Self collectives allocate nothing. It measures 1731 on amd64; the
// ceiling leaves a margin — what the test pins is that the count is
// small and constant and that none of it is a grid.
const scfIterationAllocs = 1900

// TestEigenIterationAllocatesNoGrids pins the SCF loop's allocation
// contract: once the first iterations have grown the Dist's scratch, a
// whole iteration — filter pass, subspace step, density, mix, Hartree
// solve with its V-cycles, potential update — allocates a bounded number
// of small objects and not one grid: its bytes stay below a single
// state's storage. The V-cycle hierarchy is part of that scratch: the
// first solve builds it, NewDist does not.
func TestEigenIterationAllocatesNoGrids(t *testing.T) {
	dims := topology.Dims{24, 24, 24}
	d := selfDist(dims, 2, Dirichlet)
	d.pool = nil // one worker: every allocation is this goroutine's
	sys := scfSystem(dims, 0.6)
	sys.Electrons = 8
	scf := NewDistSCF(d, sys)
	scf.Tol, scf.MaxIter = 0, 6 // never converges: six full iterations
	if d.mg != nil {
		t.Fatal("NewDist built the multigrid hierarchy; the first solve should")
	}
	// marks[it] is the heap odometer at the top of iteration it, so
	// iteration it allocated marks[it+1] - marks[it].
	marks := make([]runtime.MemStats, 0, scf.MaxIter) // sized up front: growing it would count
	scf.OnIteration = func(int) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		marks = append(marks, ms)
	}
	if res, _ := scf.Run(); res == nil || res.Iterations != scf.MaxIter {
		t.Fatalf("SCF did not run its %d iterations: %+v", scf.MaxIter, res)
	}
	oneGrid := uint64(8 * len(d.NewLocalGrid().Data()))
	for it := 3; it < len(marks); it++ { // iterations 1 and 2 grow the scratch
		bytes := marks[it].TotalAlloc - marks[it-1].TotalAlloc
		allocs := marks[it].Mallocs - marks[it-1].Mallocs
		if bytes >= oneGrid {
			t.Errorf("warmed SCF iteration %d allocated %d bytes, a grid is %d: some grid.New ran", it, bytes, oneGrid)
		}
		if allocs > scfIterationAllocs {
			t.Errorf("warmed SCF iteration %d makes %d allocations, want <= %d", it, allocs, scfIterationAllocs)
		}
		t.Logf("warmed SCF iteration %d: %d allocations, %d bytes (one state grid: %d bytes)", it, allocs, bytes, oneGrid)
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
