// Scaling: a weak-scaling (Gustafson) study on the calibrated Blue
// Gene/P model — one 192^3 grid per core, all four programming
// approaches, printed as a speedup-per-core-count table (a miniature
// version of the paper's Figure 6) — followed by a strong-scaling run
// of the REAL distributed Poisson solver (V-cycle-preconditioned
// conjugate gradients) on the in-process MPI
// runtime, then the split-phase overlapped exchange against the
// serialized baseline — solutions bit-identical at every rank count —
// and by the bands x domain eigensolver: the same eigenvalues, bit for
// bit, for every split of the wave-functions across band groups. It
// closes with the failure model: an SCF run whose rank 2 is killed
// mid-flight recovers onto the survivors from its last checkpoint and
// still reproduces the undisturbed energy bit for bit (internal/gpaw's
// TestChaosSCFDifferential asserts the full kill matrix).
package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
)

// distCG runs one distributed CG Poisson solve (flat optimized) on the
// in-process ranks of procs and returns the iteration count, the
// converged residual and the wall time.
func distCG(global topology.Dims, procs topology.Dims, rhs *grid.Grid, h float64) (int, float64, time.Duration) {
	var iters int
	var res float64
	start := time.Now()
	err := mpi.Run(procs.Count(), mpi.ThreadSingle, func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, gpaw.DistConfig{
			Global: global, Procs: procs, Halo: 2, BC: gpaw.Periodic,
			Approach: core.FlatOptimized, Batch: 1,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		ps := gpaw.NewDistPoisson(d, h)
		phi := d.NewLocalGrid()
		it, r, err := ps.SolveCG(phi, d.ScatterReplicated(rhs))
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			iters, res = it, r
		}
	})
	if err != nil {
		panic(err)
	}
	return iters, res, time.Since(start)
}

// distCGModeled solves the same CG problem under the calibrated network
// model and returns the iteration count and the deterministic virtual
// makespan. serialized forces the exchange-then-compute baseline in
// place of the split-phase overlap.
func distCGModeled(global, procs topology.Dims, rhs *grid.Grid, h float64, serialized bool) (int, time.Duration) {
	cfg := gpaw.DistConfig{
		Global: global, Procs: procs, Halo: 2, BC: gpaw.Periodic,
		Approach: core.FlatOptimized, Batch: 1,
		NoOverlap: serialized, NetCompute: true,
	}
	var iters int
	m := bgpsim.NetModelFor(procs.Count())
	m.Coords = gpaw.NetCoords(cfg, m.Net)
	m.NoComputeWall = true
	mk, err := mpi.RunModeled(procs.Count(), mpi.ThreadSingle, m, func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, cfg)
		if err != nil {
			panic(err)
		}
		defer d.Close()
		ps := gpaw.NewDistPoisson(d, h)
		phi := d.NewLocalGrid()
		it, _, err := ps.SolveCG(phi, d.ScatterReplicated(rhs))
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			iters = it
		}
	})
	if err != nil {
		panic(err)
	}
	return iters, mk
}

// tracedCGTimeline re-runs the modeled overlapped CG solve with a
// per-rank tracer armed and prints an annotated timeline excerpt plus
// the aggregated per-phase profile. The virtual clock makes the output
// deterministic run to run.
func tracedCGTimeline(global, procs topology.Dims, rhs *grid.Grid, h float64) {
	p := procs.Count()
	cfg := gpaw.DistConfig{
		Global: global, Procs: procs, Halo: 2, BC: gpaw.Periodic,
		Approach: core.FlatOptimized, Batch: 1, NetCompute: true,
	}
	tr := trace.New(p, 1<<15)
	w := mpi.NewWorld(p, mpi.ThreadSingle)
	m := bgpsim.NetModelFor(p)
	m.Coords = gpaw.NetCoords(cfg, m.Net)
	m.NoComputeWall = true
	w.SetNetModel(m)
	w.SetTracer(tr)
	err := w.Run(func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, cfg)
		if err != nil {
			panic(err)
		}
		defer d.Close()
		ps := gpaw.NewDistPoisson(d, h)
		phi := d.NewLocalGrid()
		if _, _, err := ps.SolveCG(phi, d.ScatterReplicated(rhs)); err != nil {
			panic(err)
		}
	})
	if err != nil {
		panic(err)
	}
	tr.WriteTimeline(os.Stdout, trace.Virtual, 12)
	fmt.Println("\naggregated per-phase profile of the same run:")
	fmt.Println(tr.Profile(trace.Virtual).Table())
	fmt.Println("for a Chrome/Perfetto timeline of a whole SCF run:")
	fmt.Println("`bash benchmark/run.sh -workload scf_bgp64 -trace 1 -trace-out DIR`")
}

func main() {
	fmt.Println("weak scaling on the Blue Gene/P model: grids = cores, 192^3, batch 8")
	fmt.Printf("%8s  %14s %14s %14s %14s\n",
		"cores", "FlatOriginal", "FlatOptimized", "HybridMultiple", "HybridMaster")
	for _, cores := range []int{4, 64, 512, 4096} {
		w := bgpsim.Workload{
			GridSize: topology.Dims{192, 192, 192},
			NumGrids: cores,
		}
		fmt.Printf("%8d", cores)
		for _, a := range core.Approaches {
			batch := 8
			if a == core.FlatOriginal {
				batch = 1
			}
			r, err := bgpsim.Simulate(w, bgpsim.Config{
				Cores: cores, Approach: a, BatchSize: batch, BatchRamp: batch > 1,
			})
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %11.3f s", r.Time)
		}
		fmt.Println()
	}
	fmt.Println("\nideal weak scaling would keep each column flat; the growth is the")
	fmt.Println("communication increase the paper attributes to finer partitioning")

	// Real runtime: the distributed Poisson solver — conjugate gradients
	// preconditioned with one multigrid V-cycle — across rank counts. The
	// iterate sequence is bit-identical everywhere: the iteration count
	// never changes with the decomposition.
	fmt.Println("\nreal distributed preconditioned-CG Poisson solve, 32^3 periodic, flat optimized:")
	fmt.Printf("%8s %8s %8s %12s\n", "ranks", "layout", "iters", "time")
	global := topology.Dims{32, 32, 32}
	h := 0.3
	// A localized charge blob: many Fourier modes, so the V-cycle's
	// coarse levels carry the smooth ones and CG the rest.
	rhs := grid.NewDims(global, 2)
	rhs.FillFunc(func(i, j, k int) float64 {
		dx, dy, dz := float64(i)-13.5, float64(j)-17.5, float64(k)-11.5
		return math.Exp(-(float64(dx*dx) + float64(dy*dy) + float64(dz*dz)) / 18)
	})
	for _, procs := range []topology.Dims{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		it, _, dt := distCG(global, procs, rhs, h)
		fmt.Printf("%8d %8s %8d %11.3fs\n", procs.Count(), procs.String(), it, dt.Seconds())
	}
	fmt.Println("\nidentical iteration counts at every rank count: the exact")
	fmt.Println("(order-independent) reductions make the distributed solver")
	fmt.Println("bit-identical to the serial one")

	// Split-phase overlap: the same CG problem with the halo exchange
	// overlapped with deep-interior compute versus the serialized
	// exchange-then-compute baseline. On the in-process eager transport
	// delivery is free, so host wall times CANNOT show an overlap win —
	// they only bound the protocol's structural overhead at ~1.0x. The
	// comparison therefore runs under the calibrated Blue Gene/P network
	// model, whose deterministic virtual makespans price every message;
	// both schedules still produce bit-identical iterates.
	fmt.Println("\noverlap vs serialized, same CG problem, calibrated network model:")
	fmt.Printf("%8s %8s %8s %14s %14s %9s\n", "ranks", "layout", "iters", "overlap", "serialized", "speedup")
	for _, procs := range []topology.Dims{{2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		itO, mkO := distCGModeled(global, procs, rhs, h, false)
		itS, mkS := distCGModeled(global, procs, rhs, h, true)
		if itO != itS {
			panic(fmt.Sprintf("overlap took %d iterations, serialized %d — solver not bit-identical", itO, itS))
		}
		fmt.Printf("%8d %8s %8d %11.1fus %11.1fus %8.2fx\n",
			procs.Count(), procs.String(), itO, float64(mkO)/1e3, float64(mkS)/1e3,
			float64(mkS)/float64(mkO))
	}
	fmt.Println("\nthe overlapped solver posts every halo message up front, sweeps the")
	fmt.Println("deep interior while they travel and finishes the one-cell boundary")
	fmt.Println("shell after the exchange — same bits, and under modeled message")
	fmt.Println("costs the hidden latency shows up as a real speedup")

	// Observability: the same modeled CG run with the per-rank tracer
	// armed. The annotated timeline shows the split-phase structure
	// directly — halo.post, the interior sweep hiding the messages,
	// halo.wait, the boundary shell — and the profile table aggregates
	// it into a comm/compute split with the overlap efficiency (the
	// fraction of wait time hidden behind interior compute).
	fmt.Println("\ntraced timeline of the overlapped CG run (2x2x1, virtual clock),")
	fmt.Println("first events of each rank track:")
	tracedCGTimeline(global, topology.Dims{2, 2, 1}, rhs, h)

	// Band parallelization: the second axis. Eight wave-functions in a
	// harmonic trap (and the filter's guard state) are split across band
	// groups: the grid-sized work — subspace assembly, rotation — runs
	// band-parallel, and the m x m algebra between them (Cholesky,
	// inversion, diagonalization) runs replicated on every rank.
	fmt.Println("\nband-parallel eigensolver, 12^3 harmonic trap, 8 states + guard,")
	fmt.Println("bands x domain layouts (flat optimized):")
	fmt.Printf("%8s %8s %8s %24s %12s\n", "ranks", "bands", "domain", "eig[0] (Ha)", "time")
	eGlobal := topology.Dims{12, 12, 12}
	eh := 0.5
	vext := gpaw.HarmonicPotential(eGlobal, eh, 1)
	const m = 8 + 1 // the top state of the block is the filter's guard
	for _, l := range []struct {
		bands int
		procs topology.Dims
	}{
		{1, topology.Dims{1, 1, 1}},
		{2, topology.Dims{1, 1, 1}},
		{2, topology.Dims{1, 1, 2}},
		{4, topology.Dims{1, 1, 2}},
	} {
		var e0 float64
		start := time.Now()
		err := mpi.Run(l.bands*l.procs.Count(), mpi.ThreadSingle, func(c *mpi.Comm) {
			d, err := gpaw.NewDist(c, gpaw.DistConfig{
				Global: eGlobal, Procs: l.procs, Bands: l.bands, Halo: 2,
				BC: gpaw.Dirichlet, Approach: core.FlatOptimized, Batch: 2,
			})
			if err != nil {
				panic(err)
			}
			defer d.Close()
			psis := d.InitGuessBand(m, [3]int{eGlobal[0], eGlobal[1], eGlobal[2]})
			es := gpaw.NewEigenSolver(gpaw.NewDistHamiltonian(d, eh, d.ScatterReplicated(vext)))
			es.Tol = 1e-6
			eig, err := es.Solve(m, psis)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				e0 = eig[0]
			}
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%8d %8d %8s %24.17g %11.3fs\n",
			l.bands*l.procs.Count(), l.bands, l.procs.String(), e0, time.Since(start).Seconds())
	}
	fmt.Println("\nevery bands x domain layout prints the same eigenvalue to the")
	fmt.Println("last bit: subspace matrices assemble through exact reductions and")
	fmt.Println("every rank repeats the same small dense algebra on the same bits")

	// Fault tolerance with the whole lifecycle visible — a rank
	// voluntarily dies at a chosen SCF iteration, the survivors get a
	// typed failure (never a hang), agree on the membership, shrink,
	// re-tile the last checkpoint onto the smaller grid and resume.
	fmt.Println("\nfault tolerance: SCF on 8^3 harmonic trap, 4 ranks (2x2x1),")
	fmt.Println("rank 2 killed at SCF iteration 5, checkpoint every iteration:")
	fGlobal := topology.Dims{8, 8, 8}
	fh := 0.7
	sys := gpaw.System{
		Dims: fGlobal, Spacing: fh, BC: gpaw.Dirichlet,
		Vext: gpaw.HarmonicPotential(fGlobal, fh, 1), Electrons: 2,
	}
	serialSCF := gpaw.NewDistSCF(gpaw.SelfDist(fGlobal, gpaw.Dirichlet), sys)
	serialSCF.Tol = 1e-4
	want, err := serialSCF.Run()
	if err != nil {
		panic(err)
	}
	store := gpaw.NewMemStore()
	var recovered *gpaw.SCFResult
	var survivorGrid topology.Dims
	start := time.Now()
	err = mpi.Run(4, mpi.ThreadSingle, func(c *mpi.Comm) {
		res, err := gpaw.RunSCFFT(c, gpaw.DistConfig{
			Global: fGlobal, Procs: topology.Dims{2, 2, 1}, Halo: 2,
			BC: sys.BC, Approach: core.FlatOptimized, Batch: 2,
		}, sys, gpaw.FTConfig{
			Store: store, Every: 1, Recover: true,
			Configure: func(s *gpaw.SCF) {
				s.Tol = 1e-4
				s.OnIteration = func(it int) {
					if it == 5 && c.Rank() == 2 {
						fmt.Printf("  iteration %d: rank %d dies\n", it, c.Rank())
						c.Fail()
					}
				}
			},
			OnResult: func(d *gpaw.Dist, r *gpaw.SCFResult) {
				if d.World.Rank() == 0 {
					survivorGrid = d.Decomp.Procs
				}
			},
		})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			recovered = res
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  survivors recovered onto %s in %.3fs\n", survivorGrid.String(), time.Since(start).Seconds())
	fmt.Printf("%12s %22s %8s\n", "", "E_band (Ha)", "iters")
	fmt.Printf("%12s %22.15f %8d\n", "fault-free", want.TotalEnergy, want.Iterations)
	fmt.Printf("%12s %22.15f %8d\n", "recovered", recovered.TotalEnergy, recovered.Iterations)
	if recovered.TotalEnergy != want.TotalEnergy || recovered.Iterations != want.Iterations {
		panic("recovered run deviates from the fault-free one")
	}
	fmt.Println("\nthe recovered energy and iteration count match the undisturbed run")
	fmt.Println("bit for bit: checkpoints re-tile exactly and every reduction is")
	fmt.Println("decomposition-independent — TestChaosSCFDifferential in internal/gpaw")
	fmt.Println("asserts the full kill matrix (victim x iteration x rank count)")
}
