package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// Benchmarks for the shared-memory parallel stencil execution engine:
// serial vs pool-split cache-blocked application, and fused vs unfused
// conjugate gradients.

const benchN = 64 // 64^3, the small end of the paper's grid sizes

func benchSource() *grid.Grid {
	src := grid.New(benchN, benchN, benchN, 2)
	src.FillFunc(func(i, j, k int) float64 { return float64(i+j+k) * 0.01 })
	src.FillHalosPeriodic()
	return src
}

func BenchmarkApplySerial(b *testing.B) {
	op := stencil.Laplacian(2, 1)
	src := benchSource()
	dst := grid.New(benchN, benchN, benchN, 2)
	b.SetBytes(int64(src.Points() * op.BytesPerPoint()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(dst, src)
	}
}

// BenchmarkApplyParallel measures the pool-split, cache-blocked kernel
// at 1, 2, 4 and 8 workers on a 64^3 grid. On hardware with 4+ cores
// the 4-worker case runs >= 2x faster than BenchmarkApplySerial (the
// kernel is memory-bound, so the exact factor tracks the machine's
// bandwidth-per-core ratio).
func BenchmarkApplyParallel(b *testing.B) {
	op := stencil.Laplacian(2, 1)
	src := benchSource()
	dst := grid.New(benchN, benchN, benchN, 2)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			p := stencil.NewPool(w)
			defer p.Close()
			b.SetBytes(int64(src.Points() * op.BytesPerPoint()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.ApplyParallel(p, dst, src)
			}
		})
	}
}

func benchPoissonProblem() *grid.Grid {
	rhs := gpaw.GaussianDensity(topology.Dims{benchN, benchN, benchN}, 0.3, 1.2, 1)
	rhs.Scale(-1)
	return rhs
}

// singleThreadPoisson returns the Dirichlet solver for n^3 grids on a
// one-rank context without a worker pool, so the fused/unfused CG
// comparisons isolate kernel fusion from worker-pool parallelism.
func singleThreadPoisson(n int) *gpaw.Poisson {
	d, err := gpaw.NewDist(mpi.Self(), gpaw.DistConfig{Global: topology.Dims{n, n, n},
		Procs: topology.Dims{1, 1, 1}, Halo: 2, BC: gpaw.Dirichlet, Approach: core.FlatOptimized})
	if err != nil {
		panic(err)
	}
	return gpaw.NewDistPoisson(d, 0.3)
}

// BenchmarkCGFused runs the fused conjugate-gradient Poisson solve
// (apply-with-dot, axpy-with-norm, axpy-with-scale: ~11 full-grid
// passes per iteration). Both CG benchmarks run on one thread.
func BenchmarkCGFused(b *testing.B) {
	rhs := benchPoissonProblem()
	ps := singleThreadPoisson(benchN)
	ps.Tol = 1e-6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := grid.New(benchN, benchN, benchN, 2)
		if _, _, err := ps.SolveCG(phi, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCGUnfused runs the unfused serial reference formulation
// (~18 passes per iteration) for comparison.
func BenchmarkCGUnfused(b *testing.B) {
	rhs := benchPoissonProblem()
	ps := singleThreadPoisson(benchN)
	ps.Tol = 1e-6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := grid.New(benchN, benchN, benchN, 2)
		if _, _, err := ps.SolveCGReference(phi, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// wavefrontSOR runs one distributed pipelined-wavefront SOR solve on p
// in-process ranks and returns the iteration count.
func wavefrontSOR(p int, global topology.Dims, rhs *grid.Grid, tol float64) (int, error) {
	procs := topology.DecomposeGrid(p, global)
	var iters int
	err := mpi.Run(p, mpi.ThreadSingle, func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, gpaw.DistConfig{
			Global: global, Procs: procs, Halo: 2, BC: gpaw.Dirichlet,
			Approach: core.FlatOptimized, Batch: 1,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		ps := gpaw.NewDistPoisson(d, 0.3)
		ps.Tol = tol
		phi := d.NewLocalGrid()
		it, _, err := ps.SolveSOR(phi, d.ScatterReplicated(rhs), 1.6)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			iters = it
		}
	})
	return iters, err
}

// BenchmarkWavefrontSOR measures the pipelined wavefront Gauss-Seidel
// solver — the sweep that used to gather the whole grid to rank 0 every
// iteration — across rank counts on the in-process runtime. The iterate
// sequence is bit-identical at every rank count, so each measurement
// does exactly the same arithmetic; only the pipeline structure varies.
func BenchmarkWavefrontSOR(b *testing.B) {
	global := topology.Dims{32, 32, 32}
	rhs := benchPoissonProblem32()
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wavefrontSOR(p, global, rhs, 1e-6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPoissonProblem32 is benchPoissonProblem at 32^3 — the wavefront
// benchmark's size, small enough to keep the multi-rank matrix quick.
func benchPoissonProblem32() *grid.Grid {
	rhs := gpaw.GaussianDensity(topology.Dims{32, 32, 32}, 0.3, 1.2, 1)
	rhs.Scale(-1)
	return rhs
}

// overlapCG runs one distributed CG Poisson solve on p in-process ranks
// and returns the iteration count. overlap=true runs the split-phase
// protocol (flat optimized: async exchange overlapped with deep-
// interior compute); overlap=false runs the serialized-exchange
// baseline (flat original: dimension-by-dimension blocking exchange,
// then the full sweep).
func overlapCG(p int, overlap bool, global topology.Dims, rhs *grid.Grid, tol float64) (int, error) {
	procs := topology.DecomposeGrid(p, global)
	approach := core.FlatOriginal
	if overlap {
		approach = core.FlatOptimized
	}
	var iters int
	err := mpi.Run(p, mpi.ThreadSingle, func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, gpaw.DistConfig{
			Global: global, Procs: procs, Halo: 2, BC: gpaw.Dirichlet,
			Approach: approach, Batch: 1,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		ps := gpaw.NewDistPoisson(d, 0.3)
		ps.Tol = tol
		phi := d.NewLocalGrid()
		it, _, err := ps.SolveCG(phi, d.ScatterReplicated(rhs))
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			iters = it
		}
	})
	return iters, err
}

// BenchmarkOverlapCG measures the split-phase overlapped CG solve
// against the serialized-exchange baseline across rank counts. The
// iterate sequences are bit-identical (asserted in the gpaw overlap
// differential tests), so both modes do exactly the same arithmetic;
// only the communication/computation schedule differs.
func BenchmarkOverlapCG(b *testing.B) {
	global := topology.Dims{32, 32, 32}
	rhs := benchPoissonProblem32()
	for _, p := range []int{1, 2, 4, 8} {
		for _, mode := range []struct {
			name    string
			overlap bool
		}{{"overlap", true}, {"serialized", false}} {
			b.Run(fmt.Sprintf("ranks%d/%s", p, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := overlapCG(p, mode.overlap, global, rhs, 1e-6); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// overlapCGModeled is overlapCG under the calibrated network model:
// the same solve (bit-identical results, asserted elsewhere) with every
// message priced by the bgpsim Figure-2 fit and compute charged at the
// calibrated per-point rate (NoComputeWall, so the returned virtual
// makespan is fully deterministic).
func overlapCGModeled(p int, overlap bool, m topology.Mapping, global topology.Dims, rhs *grid.Grid, tol float64) (int, time.Duration, error) {
	procs := topology.DecomposeGrid(p, global)
	cfg := gpaw.DistConfig{
		Global: global, Procs: procs, Halo: 2, BC: gpaw.Dirichlet,
		Approach: core.FlatOptimized, Batch: 1, Threads: 1,
		NoOverlap: !overlap, Map: m, NetCompute: true,
	}
	nm := bgpsim.NetModelFor(p)
	nm.Coords = gpaw.NetCoords(cfg, nm.Net)
	nm.NoComputeWall = true
	var iters int
	mk, err := mpi.RunModeled(p, mpi.ThreadSingle, nm, func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, cfg)
		if err != nil {
			panic(err)
		}
		defer d.Close()
		ps := gpaw.NewDistPoisson(d, 0.3)
		ps.Tol = tol
		phi := d.NewLocalGrid()
		it, _, err := ps.SolveCG(phi, d.ScatterReplicated(rhs))
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			iters = it
		}
	})
	return iters, mk, err
}

// The calibrated transport prices every message by the BG/P model and
// charges compute at the calibrated per-point rate, so the virtual
// makespans below are deterministic and the paper's effects are
// asserted, not just reported — the numbers the eager transport cannot
// produce (no latency to hide at memory speed). CI's netmodel-smoke job
// runs these; the ledger rows core.overlap_gain_virt and
// mpi.virt_makespan_ms of `bash benchmark/run.sh --trace 1` track the
// same quantities on the SCF workloads.

// TestCalibratedOverlapSpeedupAboveOne: under calibrated latency the
// overlapped CG solve must finish sooner than the forced-serialized one
// at 8 and at 64 simulated ranks, in the same number of iterations.
func TestCalibratedOverlapSpeedupAboveOne(t *testing.T) {
	global := topology.Dims{32, 32, 32}
	rhs := benchPoissonProblem32()
	for _, p := range []int{8, 64} {
		itOv, ov, err := overlapCGModeled(p, true, topology.MapCart, global, rhs, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		itSer, ser, err := overlapCGModeled(p, false, topology.MapCart, global, rhs, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if itOv != itSer {
			t.Fatalf("calibrated CG iters at %d ranks: overlap %d, serialized %d — solver not bit-identical", p, itOv, itSer)
		}
		speedup := float64(ser) / float64(ov)
		t.Logf("%d ranks: overlapped %v, serialized %v, speedup %.3fx", p, ov, ser, speedup)
		if speedup <= 1.0 {
			t.Errorf("calibrated overlap speedup at %d ranks is %.4fx, want > 1.0 — overlap hides no modeled latency", p, speedup)
		}
	}
}

// TestCalibratedCartMappingBeatsShuffle: the same 64-rank CG solve must
// be cheaper under the Cartesian torus embedding than under the
// worst-case shuffled placement.
func TestCalibratedCartMappingBeatsShuffle(t *testing.T) {
	global := topology.Dims{32, 32, 32}
	rhs := benchPoissonProblem32()
	_, cart, err := overlapCGModeled(64, true, topology.MapCart, global, rhs, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	_, shuffle, err := overlapCGModeled(64, true, topology.MapShuffle, global, rhs, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if cart >= shuffle {
		t.Errorf("calibrated 64-rank CG: cart mapping (%v) not cheaper than shuffle (%v)", cart, shuffle)
	}
}
