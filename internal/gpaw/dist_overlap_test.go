package gpaw

import (
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// The overlap differential matrix: every distributed solver must
// produce bitwise-identical results whether the halo exchange is
// overlapped with deep-interior compute (the split-phase protocol) or
// serialized (exchange to completion, then compute) — across rank
// counts 1/2/4/8, all four approaches, both boundary conditions and
// thread counts 1/2/4.

// overlapResult captures one distributed CG run for bitwise comparison.
type overlapResult struct {
	it  int
	res float64
	phi *grid.Grid // gathered global solution (rank 0 only)
}

// runOverlapCG solves the differential Poisson problem on p ranks with
// the given approach/threads and overlap mode, returning rank 0's view.
func runOverlapCG(t *testing.T, global, procs topology.Dims, bc Boundary, a core.Approach,
	threads int, noOverlap bool, rhs *grid.Grid) overlapResult {
	t.Helper()
	var out overlapResult
	err := runRanks(procs.Count(), modeFor(a), func(c *mpi.Comm) {
		d, err := NewDist(c, DistConfig{
			Global: global, Procs: procs, Halo: 2, BC: bc,
			Approach: a, Threads: threads, Batch: 2, NoOverlap: noOverlap,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		if want := !noOverlap && a != core.FlatOriginal && procs.Count() > 1; d.Overlapped() != want {
			t.Errorf("approach %v noOverlap=%v: Overlapped()=%v, want %v", a, noOverlap, d.Overlapped(), want)
		}
		ps := NewDistPoisson(d, 0.35)
		phi := d.NewLocalGrid()
		it, res, err := ps.SolveCG(phi, d.ScatterReplicated(rhs))
		if err != nil {
			panic(err)
		}
		g := d.GatherGlobal(phi)
		if d.Cart.Rank() == 0 {
			out = overlapResult{it: it, res: res, phi: g}
		}
	})
	if err != nil {
		t.Fatalf("procs %v approach %v threads %d noOverlap %v: %v", procs, a, threads, noOverlap, err)
	}
	return out
}

// TestOverlapVsSerializedDifferential sweeps the full overlap matrix
// for the CG solver: the overlapped run must equal the forced-
// serialized run — and the serial solver — bit for bit in iteration
// count, final residual and every solution value.
func TestOverlapVsSerializedDifferential(t *testing.T) {
	global := topology.Dims{16, 16, 16}
	h := 0.35
	rhs := poissonRHS(global)
	for _, bc := range []Boundary{Dirichlet, Periodic} {
		ps := NewPoisson(h, bc)
		wantPhi := grid.NewDims(global, 2)
		wantIt, wantRes, err := ps.SolveCG(wantPhi, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rankCounts(t) {
			procs := layoutsFor(p)[len(layoutsFor(p))-1] // the mixed shape at each rank count
			if !feasible(global, procs, 2) {
				continue
			}
			for _, a := range core.Approaches {
				for _, threads := range []int{1, 2, 4} {
					over := runOverlapCG(t, global, procs, bc, a, threads, false, rhs)
					serial := runOverlapCG(t, global, procs, bc, a, threads, true, rhs)
					if over.it != serial.it || over.res != serial.res {
						t.Errorf("%v procs %v approach %v threads %d: overlap (it,res)=(%d,%.17g), serialized (%d,%.17g)",
							bc, procs, a, threads, over.it, over.res, serial.it, serial.res)
					}
					if over.it != wantIt || over.res != wantRes {
						t.Errorf("%v procs %v approach %v threads %d: overlap (it,res)=(%d,%.17g), serial solver (%d,%.17g)",
							bc, procs, a, threads, over.it, over.res, wantIt, wantRes)
					}
					if over.phi != nil {
						if d := over.phi.MaxAbsDiff(serial.phi); d != 0 {
							t.Errorf("%v procs %v approach %v threads %d: overlap deviates from serialized by %g",
								bc, procs, a, threads, d)
						}
						if d := over.phi.MaxAbsDiff(wantPhi); d != 0 {
							t.Errorf("%v procs %v approach %v threads %d: overlap deviates from serial solver by %g",
								bc, procs, a, threads, d)
						}
					}
				}
			}
		}
	}
}

// TestOverlapEigenAndSCFBitIdentical spot-checks the deeper stacks: the
// overlapped Hamiltonian application (eigensolver, including a band-
// parallel layout) and the full SCF loop must match their forced-
// serialized twins bitwise.
func TestOverlapEigenAndSCFBitIdentical(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	h := 0.5
	vext := HarmonicPotential(global, h, 1)
	type eigRun struct {
		bands   int
		procs   topology.Dims
		a       core.Approach
		threads int
	}
	runs := []eigRun{
		{1, topology.Dims{1, 1, 2}, core.FlatOptimized, 1},
		{1, topology.Dims{2, 2, 1}, core.HybridMultiple, 2},
		{2, topology.Dims{1, 1, 2}, core.HybridMasterOnly, 2},
	}
	for _, r := range runs {
		solve := func(noOverlap bool) []float64 {
			var eig []float64
			err := runRanks(r.bands*r.procs.Count(), modeFor(r.a), func(c *mpi.Comm) {
				d, err := NewDist(c, DistConfig{
					Global: global, Procs: r.procs, Bands: r.bands, Halo: 2, BC: Dirichlet,
					Approach: r.a, Threads: r.threads, Batch: 2, NoOverlap: noOverlap,
				})
				if err != nil {
					panic(err)
				}
				defer d.Close()
				const m = 3
				psis := d.InitGuessBand(m, [3]int{global[0], global[1], global[2]})
				es := NewEigenSolver(NewDistHamiltonian(d, h, d.ScatterReplicated(vext)))
				es.Tol = 1e-7
				es.MaxIter = 500
				got, err := es.Solve(m, psis)
				if err != nil {
					panic(err)
				}
				if c.Rank() == 0 {
					eig = got
				}
			})
			if err != nil {
				t.Fatalf("%+v noOverlap=%v: %v", r, noOverlap, err)
			}
			return eig
		}
		over, serial := solve(false), solve(true)
		for i := range over {
			if over[i] != serial[i] {
				t.Errorf("%+v: overlap eig[%d]=%.17g, serialized %.17g", r, i, over[i], serial[i])
			}
		}
	}

	// SCF: total energy, iterations and residual through the whole loop
	// (eigensolver + Hartree CG + density mixing) on a hybrid layout.
	sys := scfSystem(global, 0.7)
	scfRun := func(noOverlap bool) (energy, residual float64, iters int) {
		err := runRanks(2, mpi.ThreadMultiple, func(c *mpi.Comm) {
			d, err := NewDist(c, DistConfig{
				Global: global, Procs: topology.Dims{1, 1, 2}, Halo: 2, BC: sys.BC,
				Approach: core.HybridMultiple, Threads: 2, Batch: 2, NoOverlap: noOverlap,
			})
			if err != nil {
				panic(err)
			}
			defer d.Close()
			ds := NewDistSCF(d, sys)
			ds.Tol = 1e-4
			res, err := ds.Run()
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				energy, residual, iters = res.TotalEnergy, res.Residual, res.Iterations
			}
		})
		if err != nil {
			t.Fatalf("SCF noOverlap=%v: %v", noOverlap, err)
		}
		return
	}
	oe, or, oi := scfRun(false)
	se, sr, si := scfRun(true)
	if oe != se || or != sr || oi != si {
		t.Errorf("SCF overlap (E,res,it)=(%.17g,%.17g,%d) != serialized (%.17g,%.17g,%d)", oe, or, oi, se, sr, si)
	}
}

// Overlapped reports whether the hot solver loops run the split-phase
// overlapped protocol: every approach but FlatOriginal on a domain grid
// of more than one rank, unless DistConfig.NoOverlap forced the
// serialized baseline.
func (d *Dist) Overlapped() bool { return d.overlap }
