package gpaw

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// The cross-rank differential harness: every distributed solver runs on
// 1/2/4/8 ranks over (1,1,P), (1,P,1) and (P1,P2,1) process grids, for
// each of the four programming approaches, and every result — solution
// fields, iteration counts, residuals, eigenvalues, SCF total energies —
// must be bit-identical to the serial solver.

// layoutsFor returns the process-grid shapes exercised at p ranks.
// shapes needing an extent of at least minExtent per decomposed
// dimension are produced for grids that can host them; small grids use
// the mixed (P1,P2,1)-style shapes only.
func layoutsFor(p int) []topology.Dims {
	switch p {
	case 1:
		return []topology.Dims{{1, 1, 1}}
	case 2:
		return []topology.Dims{{1, 1, 2}, {1, 2, 1}, {2, 1, 1}}
	case 4:
		return []topology.Dims{{1, 1, 4}, {1, 4, 1}, {2, 2, 1}}
	case 8:
		return []topology.Dims{{1, 1, 8}, {1, 8, 1}, {2, 4, 1}, {4, 2, 1}}
	}
	return nil
}

// feasible reports whether every decomposed dimension keeps sub-domains
// at least halo thick.
func feasible(global, procs topology.Dims, halo int) bool {
	_, err := grid.NewDecomp(global, procs, halo)
	return err == nil
}

// modeFor returns the MPI thread mode an approach requires.
func modeFor(a core.Approach) mpi.ThreadMode {
	if a == core.HybridMultiple {
		return mpi.ThreadMultiple
	}
	return mpi.ThreadSingle
}

// threadsFor returns the per-rank worker count used in the harness.
func threadsFor(a core.Approach) int {
	if a.Hybrid() {
		return 2
	}
	return 1
}

// runDist spins up an MPI world and builds the per-rank Dist context
// with the harness's worker count for the approach.
func runDist(t *testing.T, global, procs topology.Dims, bc Boundary, a core.Approach, body func(d *Dist)) {
	t.Helper()
	runDistThreads(t, global, procs, bc, a, threadsFor(a), body)
}

// runDistThreads is runDist with an explicit per-rank worker count.
func runDistThreads(t *testing.T, global, procs topology.Dims, bc Boundary, a core.Approach, threads int, body func(d *Dist)) {
	t.Helper()
	err := runRanks(procs.Count(), modeFor(a), func(c *mpi.Comm) {
		d, err := NewDist(c, DistConfig{
			Global: global, Procs: procs, Halo: 2, BC: bc,
			Approach: a, Threads: threads, Batch: 2,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		body(d)
	})
	if err != nil {
		t.Fatalf("procs %v approach %v threads %d: %v", procs, a, threads, err)
	}
}

// checkIdentical fails unless the gathered distributed field matches
// the serial one bitwise (rank 0 only holds the gathered field).
func checkIdentical(t *testing.T, d *Dist, local, want *grid.Grid, what string, procs topology.Dims, a core.Approach) {
	t.Helper()
	g := d.GatherGlobal(local)
	if d.Cart.Rank() != 0 {
		return
	}
	if diff := g.MaxAbsDiff(want); diff != 0 {
		t.Errorf("%s: procs %v approach %v deviates from serial by %g", what, procs, a, diff)
	}
}

// poissonRHS is the differential problems' deterministic right-hand side.
func poissonRHS(global topology.Dims) *grid.Grid {
	rhs := grid.NewDims(global, 2)
	n0, n1 := float64(global[0]), float64(global[1])
	rhs.FillFunc(func(i, j, k int) float64 {
		return math.Sin(2*math.Pi*float64(i)/n0)*math.Cos(2*math.Pi*float64(j)/n1) +
			0.25*math.Cos(2*math.Pi*float64(k)/float64(global[2]))
	})
	return rhs
}

// rankCounts returns the rank counts the harness sweeps; the CI smoke
// matrix narrows it through DIST_RANKS.
func rankCounts(t *testing.T) []int {
	if v := os.Getenv("DIST_RANKS"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			t.Fatalf("bad DIST_RANKS %q", v)
		}
		return []int{p}
	}
	return []int{1, 2, 4, 8}
}

// TestDistPoissonCGDifferential sweeps the full rank-count x layout x
// approach matrix for the CG solver under both boundary conditions.
func TestDistPoissonCGDifferential(t *testing.T) {
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
			for _, procs := range layoutsFor(p) {
				if !feasible(global, procs, 2) {
					continue
				}
				for _, a := range core.Approaches {
					runDist(t, global, procs, bc, a, func(d *Dist) {
						dps := NewDistPoisson(d, h)
						phi := d.NewLocalGrid()
						it, res, err := dps.SolveCG(phi, d.ScatterReplicated(rhs))
						if err != nil {
							panic(err)
						}
						if it != wantIt || res != wantRes {
							t.Errorf("%v CG procs %v approach %v: (it,res)=(%d,%.17g), serial (%d,%.17g)",
								bc, procs, a, it, res, wantIt, wantRes)
						}
						checkIdentical(t, d, phi, wantPhi, "CG "+bc.String(), procs, a)
					})
				}
			}
		}
	}
}

// TestDistMultigridDifferential: the V-cycle — including the
// redistribution of coarse levels onto shrunken grids — applied once as
// the preconditioner must reproduce the one-rank cycle bitwise.
func TestDistMultigridDifferential(t *testing.T) {
	global := topology.Dims{16, 16, 16}
	h := 0.35
	rhs := poissonRHS(global)
	for _, bc := range []Boundary{Dirichlet, Periodic} {
		mgS, err := selfDist(global, 2, bc).hierarchy(h)
		if err != nil {
			t.Fatal(err)
		}
		wantZ := mgS.precondition(rhs)
		// (4,1,1): levels 16->8 stay on the full grid and aligned, 4^3
		// redistributes onto (2,1,1) with ranks 2-3 parked. (1,1,8):
		// shrinks from the first coarsening, twice ((1,1,4) then
		// (1,1,2)). (2,2,1): full process grid at every level.
		for _, procs := range []topology.Dims{{1, 1, 1}, {2, 1, 1}, {1, 1, 2}, {2, 2, 1}, {4, 1, 1}, {1, 1, 8}} {
			for _, a := range []core.Approach{core.FlatOptimized, core.HybridMasterOnly} {
				runDist(t, global, procs, bc, a, func(d *Dist) {
					mg, err := d.hierarchy(h)
					if err != nil {
						panic(err)
					}
					z := mg.precondition(d.ScatterReplicated(rhs))
					checkIdentical(t, d, z, wantZ, "V-cycle "+bc.String(), procs, a)
				})
			}
		}
	}
}

// TestDistMultigridShrinksDeepLevels pins the redistribution decision:
// hierarchies whose coarse levels cannot host the full process grid
// shrink onto sub-communicators at exactly the predicted level.
func TestDistMultigridShrinksDeepLevels(t *testing.T) {
	global := topology.Dims{16, 16, 16}
	cases := []struct {
		procs topology.Dims
		from  int
	}{
		{topology.Dims{1, 1, 1}, 3}, // trivially full-grid at every level
		{topology.Dims{2, 2, 1}, 3}, // 4^3 over (2,2,1) stays feasible and aligned
		{topology.Dims{4, 1, 1}, 2}, // 16,8 full grid; 4^3 -> (2,1,1), ranks 2-3 park
		{topology.Dims{1, 1, 8}, 1}, // 8^3 already infeasible over 8 -> (1,1,4) -> (1,1,2)
	}
	for _, tc := range cases {
		runDist(t, global, tc.procs, Dirichlet, core.FlatOptimized, func(d *Dist) {
			mg, err := d.hierarchy(0.35)
			if err != nil {
				panic(err)
			}
			if len(mg.levels) != 3 {
				t.Errorf("procs %v: %d levels, want 3", tc.procs, len(mg.levels))
			}
			// The first level on a smaller or re-split process grid (every
			// rank derives the whole chain, parked ones included).
			from := slices.IndexFunc(mg.levels, func(lv *mgLevel) bool { return lv.shrunk })
			if from < 0 {
				from = len(mg.levels)
			}
			if from != tc.from {
				t.Errorf("procs %v: shrunk from level %d, want %d", tc.procs, from, tc.from)
			}
		})
	}
}

// scfSystem is the differential harness's model system: a harmonic trap
// on a grid small enough that the full matrix stays fast but large
// enough for 8-rank mixed layouts.
func scfSystem(global topology.Dims, h float64) System {
	return System{
		Dims:      global,
		Spacing:   h,
		BC:        Dirichlet,
		Vext:      HarmonicPotential(global, h, 1),
		Electrons: 2,
	}
}

// scfLayoutsFor adapts the layout matrix to the 8^3 SCF grid: 8-rank
// single-dimension shapes would slice below the halo, so rank count 8
// uses the mixed shapes.
func scfLayoutsFor(p int) []topology.Dims {
	if p == 8 {
		return []topology.Dims{{2, 4, 1}, {4, 2, 1}, {2, 2, 2}}
	}
	return layoutsFor(p)
}

// TestDistSCFDifferential is the acceptance harness: all four
// approaches on every rank count produce SCF total energies,
// eigenvalues, iteration counts and density fields bit-identical to the
// serial SCF loop.
func TestDistSCFDifferential(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	h := 0.7
	sys := scfSystem(global, h)
	scf := NewSCF(sys)
	scf.Tol = 1e-4
	want, err := scf.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rankCounts(t) {
		for li, procs := range scfLayoutsFor(p) {
			if !feasible(global, procs, 2) {
				continue
			}
			approaches := core.Approaches
			if testing.Short() && li > 0 {
				// Short mode: full approach coverage on the first layout
				// of each rank count only.
				approaches = approaches[:1]
			}
			for _, a := range approaches {
				runDist(t, global, procs, sys.BC, a, func(d *Dist) {
					ds := NewDistSCF(d, sys)
					ds.Tol = 1e-4
					res, err := ds.Run()
					if err != nil {
						panic(err)
					}
					if res.TotalEnergy != want.TotalEnergy {
						t.Errorf("SCF procs %v approach %v: total energy %.17g, serial %.17g",
							procs, a, res.TotalEnergy, want.TotalEnergy)
					}
					if res.Iterations != want.Iterations || res.Residual != want.Residual {
						t.Errorf("SCF procs %v approach %v: (it,res)=(%d,%.17g), serial (%d,%.17g)",
							procs, a, res.Iterations, res.Residual, want.Iterations, want.Residual)
					}
					for i := range res.Eigenvalues {
						if res.Eigenvalues[i] != want.Eigenvalues[i] {
							t.Errorf("SCF procs %v approach %v: eigenvalue %d = %.17g, serial %.17g",
								procs, a, i, res.Eigenvalues[i], want.Eigenvalues[i])
						}
					}
					checkIdentical(t, d, res.Density, want.Density, "SCF density", procs, a)
					checkIdentical(t, d, res.VHartree, want.VHartree, "SCF vH", procs, a)
				})
			}
		}
	}
}

// guessValue is the seed field of fillGuess evaluated at global index
// (i, j, k) of a dims-sized grid, every sine computed on the spot: the
// oracle the tabulated fill is held to.
func guessValue(s int, dims [3]int, i, j, k int) float64 {
	x := float64(i+1) / float64(dims[0]+1)
	y := float64(j+1) / float64(dims[1]+1)
	z := float64(k+1) / float64(dims[2]+1)
	return float64(math.Sin(math.Pi*x*float64(1+s%3))*
		math.Sin(math.Pi*y*float64(1+(s/3)%3))*
		math.Sin(math.Pi*z*float64(1+(s/9)%3))) +
		float64(0.01*math.Cos(float64(s)+x+float64(2*y)+float64(3*z)))
}

// TestInitGuessMatchesGuessValue holds InitGuess, and InitGuessBand on
// every rank of a 2x1x1 domain split under two band groups, to
// guessValue bit for bit, over states that reach every mode and on a
// grid too long for fillGuess's stack tables.
func TestInitGuessMatchesGuessValue(t *testing.T) {
	const m = 19
	check := func(what string, s int, dims [3]int, g *grid.Grid, off topology.Coord) {
		t.Helper()
		for i := range g.Nx {
			for j := range g.Ny {
				for k := range g.Nz {
					w := guessValue(s, dims, off[0]+i, off[1]+j, off[2]+k)
					if got := g.At(i, j, k); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s state %d at (%d, %d, %d): %x, guessValue %x",
							what, s, off[0]+i, off[1]+j, off[2]+k, math.Float64bits(got), math.Float64bits(w))
					}
				}
			}
		}
	}
	dims := [3]int{7, 5, 6}
	for s, g := range InitGuess(m, dims, 2) {
		check("InitGuess", s, dims, g, topology.Coord{})
	}
	long := [3]int{150, 30, 20}
	for s, g := range InitGuess(2, long, 2) {
		check("InitGuess", s, long, g, topology.Coord{})
	}
	err := runRanks(4, mpi.ThreadSingle, func(c *mpi.Comm) {
		d, err := NewDist(c, DistConfig{
			Global: topology.Dims(dims), Procs: topology.Dims{2, 1, 1}, Halo: 2,
			Approach: core.FlatOptimized, Bands: 2,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		lo, _ := d.BandRange(m)
		for n, g := range d.InitGuessBand(m, dims) {
			check("InitGuessBand", lo+n, dims, g, d.Offset())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistEigenDifferential covers the eigensolver directly (more
// states than the SCF run uses) across approaches.
func TestDistEigenDifferential(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	h := 0.5
	vext := HarmonicPotential(global, h, 1)
	ham := NewHamiltonian(h, vext, Dirichlet)
	es := NewEigenSolver(ham)
	es.Tol = 1e-7
	es.MaxIter = 500
	psis := InitGuess(3, [3]int{8, 8, 8}, 2)
	want, err := es.Solve(3, psis)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rankCounts(t) {
		for _, procs := range scfLayoutsFor(p)[:1] {
			for _, a := range core.Approaches {
				runDist(t, global, procs, Dirichlet, a, func(d *Dist) {
					vloc := d.ScatterReplicated(vext)
					dh := NewDistHamiltonian(d, h, vloc)
					des := NewEigenSolver(dh)
					des.Tol = 1e-7
					des.MaxIter = 500
					dpsis := make([]*grid.Grid, 3)
					dims := [3]int{8, 8, 8}
					for s := range dpsis {
						g := d.NewLocalGrid()
						s := s
						off := d.Offset()
						g.FillFunc(func(i, j, k int) float64 {
							return guessValue(s, dims, off[0]+i, off[1]+j, off[2]+k)
						})
						dpsis[s] = g
					}
					eig, err := des.Solve(3, dpsis)
					if err != nil {
						panic(err)
					}
					for i := range eig {
						if eig[i] != want[i] {
							t.Errorf("eigen procs %v approach %v: eig[%d]=%.17g, serial %.17g",
								procs, a, i, eig[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestSolverErrorsReportResidual: every solver — serial and distributed
// — reports the final relative residual in its non-convergence error,
// in one uniform format; the distributed error string must equal the
// serial one character for character (the residuals are bit-identical).
func TestSolverErrorsReportResidual(t *testing.T) {
	global := topology.Dims{12, 12, 12}
	h := 0.4
	rhs := poissonRHS(global)
	wantSub := "did not converge (relative residual "
	serialErr := func(name string, f func(ps *Poisson, phi *grid.Grid) (int, float64, error)) string {
		ps := NewPoisson(h, Dirichlet)
		ps.MaxIter = 2
		phi := grid.NewDims(global, 2)
		_, res, err := f(ps, phi)
		if err == nil {
			t.Fatalf("%s: expected non-convergence at MaxIter=2", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s error %q lacks %q", name, err.Error(), wantSub)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%g", res)) {
			t.Errorf("%s error %q does not report returned residual %g", name, err.Error(), res)
		}
		return err.Error()
	}
	cgMsg := serialErr("CG", func(ps *Poisson, phi *grid.Grid) (int, float64, error) { return ps.SolveCG(phi, rhs) })
	serialErr("CGReference", func(ps *Poisson, phi *grid.Grid) (int, float64, error) { return ps.SolveCGReference(phi, rhs) })

	runDist(t, global, topology.Dims{1, 1, 2}, Dirichlet, core.FlatOptimized, func(d *Dist) {
		dps := NewDistPoisson(d, h)
		dps.MaxIter = 2
		lphi := d.NewLocalGrid()
		if _, _, err := dps.SolveCG(lphi, d.ScatterReplicated(rhs)); err == nil || err.Error() != cgMsg {
			t.Errorf("distributed CG error %v != serial %q", err, cgMsg)
		}
	})
}

// TestDistReductionDeterminism is the deterministic-reduction satellite:
// distributed Dot/Sum/Allreduce sums must be independent of message
// arrival order — ranks are delayed by random amounts before reducing —
// and must match the serial reduction exactly, repeatedly.
func TestDistReductionDeterminism(t *testing.T) {
	global := topology.Dims{12, 10, 8}
	a := grid.NewDims(global, 2)
	b := grid.NewDims(global, 2)
	a.FillFunc(func(i, j, k int) float64 {
		return math.Sin(float64(i*3+j*7+k)) * math.Pow(10, float64((i+j+k)%37)-18)
	})
	b.FillFunc(func(i, j, k int) float64 { return math.Cos(float64(i - j + 2*k)) })
	wantDot := a.Dot(b)
	wantSq := a.Dot(a)
	wantSum := a.Sum()
	for trial := 0; trial < 4; trial++ {
		seed := int64(1000 + trial)
		for _, procs := range []topology.Dims{{1, 2, 1}, {2, 2, 1}, {1, 1, 4}, {2, 4, 1}} {
			runDist(t, global, procs, Periodic, core.FlatOptimized, func(d *Dist) {
				// Randomized per-rank delay: the exact rank-ordered merge
				// must make arrival order irrelevant.
				rng := rand.New(rand.NewSource(seed + int64(d.Cart.Rank())*7919))
				time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
				la := d.ScatterReplicated(a)
				lb := d.ScatterReplicated(b)
				dot, sq := d.Dot(la, lb), d.Dot(la, la)
				sum := d.Sum(la)
				if dot != wantDot || sq != wantSq || sum != wantSum {
					t.Errorf("procs %v trial %d: (dot,sq,sum)=(%.17g,%.17g,%.17g) != serial (%.17g,%.17g,%.17g)",
						procs, trial, dot, sq, sum, wantDot, wantSq, wantSum)
				}
			})
		}
	}
}

// TestDistSmoke is the CI smoke-matrix entry point: DIST_RANKS narrows
// the harness to one rank count and runs a quick end-to-end slice
// (CG + SCF differential for every approach on one layout).
func TestDistSmoke(t *testing.T) {
	p := 2
	if v := os.Getenv("DIST_RANKS"); v != "" {
		var err error
		if p, err = strconv.Atoi(v); err != nil {
			t.Fatalf("bad DIST_RANKS %q", v)
		}
	}
	global := topology.Dims{8, 8, 8}
	h := 0.7
	rhs := poissonRHS(global)
	ps := NewPoisson(0.35, Dirichlet)
	wantPhi := grid.NewDims(global, 2)
	wantIt, _, err := ps.SolveCG(wantPhi, rhs)
	if err != nil {
		t.Fatal(err)
	}
	sys := scfSystem(global, h)
	scf := NewSCF(sys)
	scf.Tol = 1e-4
	want, err := scf.Run()
	if err != nil {
		t.Fatal(err)
	}
	procs := scfLayoutsFor(p)[0]
	if !feasible(global, procs, 2) {
		t.Fatalf("smoke layout %v infeasible", procs)
	}
	for _, a := range core.Approaches {
		runDist(t, global, procs, Dirichlet, a, func(d *Dist) {
			dps := NewDistPoisson(d, 0.35)
			phi := d.NewLocalGrid()
			it, _, err := dps.SolveCG(phi, d.ScatterReplicated(rhs))
			if err != nil {
				panic(err)
			}
			if it != wantIt {
				t.Errorf("smoke CG procs %v approach %v: %d iters, serial %d", procs, a, it, wantIt)
			}
			checkIdentical(t, d, phi, wantPhi, "smoke CG", procs, a)

			ds := NewDistSCF(d, sys)
			ds.Tol = 1e-4
			res, err := ds.Run()
			if err != nil {
				panic(err)
			}
			if res.TotalEnergy != want.TotalEnergy {
				t.Errorf("smoke SCF procs %v approach %v: energy %.17g, serial %.17g",
					procs, a, res.TotalEnergy, want.TotalEnergy)
			}
		})
	}
}
