package gpaw

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// The bands x domain differential harness: the band-parallel eigensolver
// and SCF loop must produce eigenvalues, wave-functions and total
// energies bit-identical to the serial solver for band counts {1, 2, 4}
// crossed with domain rank counts {1, 2, 4} (<= 8 total ranks), for all
// four programming approaches.

// bandCounts returns the band-group counts the harness sweeps; the CI
// smoke matrix narrows it through BAND_RANKS.
func bandCounts(t *testing.T) []int {
	if v := os.Getenv("BAND_RANKS"); v != "" {
		b, err := strconv.Atoi(v)
		if err != nil || b < 1 {
			t.Fatalf("bad BAND_RANKS %q", v)
		}
		return []int{b}
	}
	return []int{1, 2, 4}
}

// domainShapes returns the domain process-grid shape per domain rank
// count; DIST_RANKS narrows the sweep like the domain-only harness.
func domainShapes(t *testing.T) []topology.Dims {
	shapes := map[int]topology.Dims{1: {1, 1, 1}, 2: {1, 1, 2}, 4: {2, 2, 1}}
	if v := os.Getenv("DIST_RANKS"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad DIST_RANKS %q", v)
		}
		s, ok := shapes[p]
		if !ok {
			t.Skipf("DIST_RANKS=%d has no band-harness domain shape", p)
		}
		return []topology.Dims{s}
	}
	return []topology.Dims{shapes[1], shapes[2], shapes[4]}
}

// runBand spins up a bands x domain world and builds the per-rank Dist.
func runBand(t *testing.T, global, procs topology.Dims, bands int, bc Boundary, a core.Approach, body func(d *Dist)) {
	t.Helper()
	err := runRanks(bands*procs.Count(), modeFor(a), func(c *mpi.Comm) {
		d, err := NewDist(c, DistConfig{
			Global: global, Procs: procs, Bands: bands, Halo: 2, BC: bc,
			Approach: a, Threads: threadsFor(a), Batch: 2,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		body(d)
	})
	if err != nil {
		t.Fatalf("bands %d procs %v approach %v: %v", bands, procs, a, err)
	}
}

// TestBandSymMatrixRotate pins the band-parallel primitives in
// isolation: the gather, the column-owned subspace-matrix assembly and
// the rotation must match plain undecomposed dot products and the
// one-group rotate bitwise on bands x 2 layouts with m = 5, whose band
// slices are 3/2, 2/2/1, 2/1/1/1 and, at 6 groups, five single states
// and one group that owns none.
func TestBandSymMatrixRotate(t *testing.T) {
	for _, bands := range []int{2, 3, 4, 6} {
		t.Run(fmt.Sprintf("bands=%d", bands), func(t *testing.T) { testBandSymMatrixRotate(t, bands) })
	}
}

func testBandSymMatrixRotate(t *testing.T, bands int) {
	global := topology.Dims{8, 6, 8}
	dims := [3]int{8, 6, 8}
	const m = 5
	serial := InitGuess(m, dims, 2)
	want := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			want[i][j] = serial[i].Dot(serial[j])
			want[j][i] = want[i][j]
		}
	}
	// A deterministic full-rank rotation.
	c := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			c[i][j] = math.Sin(float64(3*i+5*j+1)) * 0.4
		}
		c[i][i] += 1.5
	}
	rotSerial := make([]*grid.Grid, m)
	for i := range rotSerial {
		rotSerial[i] = serial[i].Clone()
	}
	selfDist(global, 2, Dirichlet).bandRotate(m, rotSerial, rotSerial, c)
	runBand(t, global, topology.Dims{1, 1, 2}, bands, Dirichlet, core.FlatOptimized, func(d *Dist) {
		psis := d.InitGuessBand(m, dims)
		// Two right-hand sets in one assembly; the second is the first
		// doubled, which doubles every dot product exactly.
		twice := d.InitGuessBand(m, dims)
		for _, g := range twice {
			g.Scale(2)
		}
		all := d.gatherBands(m, psis)
		got, got2 := linalg.NewMatrix(m, m), linalg.NewMatrix(m, m)
		d.bandSymMatrix(m, []linalg.Matrix{got, got2}, all, psis, twice)
		if diff := linalg.MaxAbsDiff(got, want); diff != 0 {
			t.Errorf("bandSymMatrix deviates from undecomposed dot products by %g", diff)
		}
		for i := range got2 {
			for j := range got2[i] {
				if got2[i][j] != 2*want[i][j] {
					t.Errorf("bandSymMatrix second matrix [%d][%d] = %g, want %g", i, j, got2[i][j], 2*want[i][j])
				}
			}
		}
		d.bandRotate(m, psis, all, c)
		lo, _ := d.BandRange(m)
		for s, psi := range psis {
			g := d.GatherGlobal(psi)
			if d.Cart.Rank() != 0 {
				continue
			}
			if diff := g.MaxAbsDiff(rotSerial[lo+s]); diff != 0 {
				t.Errorf("band %d: bandRotate state %d deviates from serial rotate by %g", d.Band, lo+s, diff)
			}
		}
	})
}

// TestBandEigenDifferential is the eigensolver acceptance matrix:
// eigenvalues AND converged wave-functions bit-identical to the serial
// solver for every bands x domain layout and all four approaches.
func TestBandEigenDifferential(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	dims := [3]int{8, 8, 8}
	h := 0.5
	const m = 4
	vext := HarmonicPotential(global, h, 1)
	ham := NewHamiltonian(h, vext, Dirichlet)
	es := NewEigenSolver(ham)
	es.Tol = 1e-7
	es.MaxIter = 500
	serialPsis := InitGuess(m, dims, 2)
	want, err := es.Solve(m, serialPsis)
	if err != nil {
		t.Fatal(err)
	}
	for _, bands := range bandCounts(t) {
		for _, procs := range domainShapes(t) {
			if bands*procs.Count() > 8 {
				continue
			}
			for _, a := range core.Approaches {
				runBand(t, global, procs, bands, Dirichlet, a, func(d *Dist) {
					vloc := d.ScatterReplicated(vext)
					dh := NewDistHamiltonian(d, h, vloc)
					des := NewEigenSolver(dh)
					des.Tol = 1e-7
					des.MaxIter = 500
					psis := d.InitGuessBand(m, dims)
					eig, err := des.Solve(m, psis)
					if err != nil {
						panic(err)
					}
					for i := range eig {
						if eig[i] != want[i] {
							t.Errorf("bands %d procs %v approach %v: eig[%d]=%.17g, serial %.17g",
								bands, procs, a, i, eig[i], want[i])
						}
					}
					// Wave-functions: the rotation sequence is deterministic
					// (canonical SymEig, bit-identical subspace matrices), so
					// the states themselves must match bitwise.
					gathered := d.GatherBandStates(m, psis)
					if gathered != nil {
						for s, g := range gathered {
							if diff := g.MaxAbsDiff(serialPsis[s]); diff != 0 {
								t.Errorf("bands %d procs %v approach %v: state %d deviates by %g",
									bands, procs, a, s, diff)
							}
						}
					}
				})
			}
		}
	}
}

// TestBandSCFDifferential is the SCF acceptance matrix: total energies,
// eigenvalues, iteration counts, residuals and fields bit-identical to
// the serial SCF for every bands x domain layout and all four
// approaches. Eight electrons give four occupied states — the s level
// plus the closed, 3-fold degenerate p shell of the harmonic trap —
// and with the guard five to distribute, so every band count up to 4
// gets a non-trivial, uneven slice (TestBandEmptyGroup covers slices
// that come up empty).
func TestBandSCFDifferential(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	h := 0.7
	sys := scfSystem(global, h)
	sys.Electrons = 8 // four doubly occupied states: s + closed p shell
	scf := NewSCF(sys)
	scf.Tol = 1e-4
	want, err := scf.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, bands := range bandCounts(t) {
		for _, procs := range domainShapes(t) {
			if bands*procs.Count() > 8 {
				continue
			}
			approaches := core.Approaches
			if testing.Short() && bands*procs.Count() > 4 {
				approaches = approaches[:2]
			}
			for _, a := range approaches {
				runBand(t, global, procs, bands, sys.BC, a, func(d *Dist) {
					ds := NewDistSCF(d, sys)
					ds.Tol = 1e-4
					res, err := ds.Run()
					if err != nil {
						panic(err)
					}
					if res.TotalEnergy != want.TotalEnergy {
						t.Errorf("SCF bands %d procs %v approach %v: E=%.17g, serial %.17g",
							bands, procs, a, res.TotalEnergy, want.TotalEnergy)
					}
					if res.Iterations != want.Iterations || res.Residual != want.Residual {
						t.Errorf("SCF bands %d procs %v approach %v: (it,res)=(%d,%.17g), serial (%d,%.17g)",
							bands, procs, a, res.Iterations, res.Residual, want.Iterations, want.Residual)
					}
					for i := range res.Eigenvalues {
						if res.Eigenvalues[i] != want.Eigenvalues[i] {
							t.Errorf("SCF bands %d procs %v approach %v: eig[%d]=%.17g, serial %.17g",
								bands, procs, a, i, res.Eigenvalues[i], want.Eigenvalues[i])
						}
					}
					checkIdentical(t, d, res.Density, want.Density, "band SCF density", procs, a)
					checkIdentical(t, d, res.VHartree, want.VHartree, "band SCF vH", procs, a)
				})
			}
		}
	}
}

// TestBandHartreeSolvedOnce: only band group 0 solves the Hartree
// equation. The other groups receive v_H by broadcast (the band SCF
// differential holds its bits), never build the multigrid hierarchy and
// run no CG iteration, while band group 0 runs exactly the iterations of
// the one-rank run.
func TestBandHartreeSolvedOnce(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	run := func(d *Dist) {
		s := NewDistSCF(d, sys)
		s.Tol = 1e-4
		if _, err := s.Run(); err != nil {
			panic(err)
		}
	}
	var want int
	runBand(t, global, topology.Dims{1, 1, 1}, 1, sys.BC, core.FlatOptimized, func(d *Dist) {
		run(d)
		want = d.cgIters
	})
	if want == 0 {
		t.Fatal("the one-rank run counted no CG iteration")
	}
	for _, l := range []struct {
		bands int
		procs topology.Dims
	}{{2, topology.Dims{2, 1, 1}}, {4, topology.Dims{1, 1, 2}}} {
		runBand(t, global, l.procs, l.bands, sys.BC, core.FlatOptimized, func(d *Dist) {
			run(d)
			if d.Band != 0 && (d.mg != nil || d.cgIters != 0) {
				t.Errorf("bands %d, band group %d: built a hierarchy (%v) and ran %d CG iterations, want none",
					l.bands, d.Band, d.mg != nil, d.cgIters)
			}
			if d.Band == 0 && d.cgIters != want {
				t.Errorf("bands %d, band group 0: %d CG iterations, one-rank run %d", l.bands, d.cgIters, want)
			}
		})
	}
}

// TestHartreeToleranceFollowsResidual: each SCF step solves the Hartree
// equation to hartreeTolFactor times that step's density residual,
// clamped to [hartreeTolFloor, hartreeTolCeil] — the ceiling on a fresh
// run's first step, whose residual is +Inf, and the floor once the loop
// nears an SCF Tol of 1e-8. The residual is a replicated exact
// reduction, so the serial run, a 2 bands x 2x2x1 run (every band group
// 0 rank) and a run resumed from a checkpoint on another layout solve to
// the same tolerances bit for bit. Each step's residual is read back as
// the result residual of a serial run stopped at that step.
func TestHartreeToleranceFollowsResidual(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	const resumeStep = 3
	// tols[r] is the tolerance sequence world rank r's hook saw.
	var tols [][]float64
	testHookHartree = func(d *Dist, ps *Poisson) {
		r := d.World.Rank()
		tols[r] = append(tols[r], ps.Tol)
	}
	defer func() { testHookHartree = nil }()
	// scf builds the driver on d, serial (NewSCF's one-rank context) when
	// d is nil.
	scf := func(d *Dist, maxIter int) *SCF {
		s := NewSCF(sys)
		s.D, s.Tol, s.MaxIter = d, 1e-8, maxIter
		return s
	}

	store := NewMemStore()
	tols = make([][]float64, 1)
	s := scf(nil, 100)
	s.Ckpt = &Checkpointer{Store: store, Every: 1}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, steps := tols[0], res.Iterations
	if len(want) != steps {
		t.Fatalf("%d Hartree solves over %d SCF steps", len(want), steps)
	}
	if want[0] != hartreeTolCeil {
		t.Errorf("step 1 solved to %g, want the ceiling %g", want[0], hartreeTolCeil)
	}
	for it := 2; it <= steps; it++ {
		// Stopped short of SCF Tol, the run returns its result and an error.
		res, err := scf(nil, it).Run()
		if res == nil {
			t.Fatalf("run stopped at step %d: %v", it, err)
		}
		tol := math.Min(math.Max(hartreeTolFactor*res.Residual, hartreeTolFloor), hartreeTolCeil)
		if want[it-1] != tol {
			t.Errorf("step %d solved to %g, want clamp(%g · residual %g) = %g", it, want[it-1], hartreeTolFactor, res.Residual, tol)
		}
	}
	if last := want[steps-1]; last != hartreeTolFloor {
		t.Errorf("last of %d steps solved to %g at SCF Tol 1e-8, want the floor %g", steps, last, hartreeTolFloor)
	}
	t.Logf("Hartree tolerances over %d steps: %g", steps, want)

	same := func(what string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d solves, serial %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: step %d solved to %g, serial %g", what, i+1, got[i], want[i])
			}
		}
	}
	const bands = 2
	procs := topology.Dims{2, 2, 1}
	tols = make([][]float64, bands*procs.Count())
	runBand(t, global, procs, bands, sys.BC, core.FlatOptimized, func(d *Dist) {
		if _, err := scf(d, 100).Run(); err != nil {
			panic(err)
		}
	})
	for r := range procs.Count() { // band group 0's world ranks
		same(fmt.Sprintf("2 bands x %v, rank %d", procs, r), tols[r])
	}

	resumeProcs := topology.Dims{1, 1, 2}
	tols = make([][]float64, resumeProcs.Count())
	runBand(t, global, resumeProcs, 1, sys.BC, core.FlatOptimized, func(d *Dist) {
		rs, err := RestoreSCF(d, store, resumeStep)
		if err != nil {
			panic(err)
		}
		if _, err := scf(d, 100).Resume(rs); err != nil {
			panic(err)
		}
	})
	for r := range tols {
		same(fmt.Sprintf("resumed from step %d on %v, rank %d", resumeStep, resumeProcs, r),
			append(append([]float64(nil), want[:resumeStep]...), tols[r]...))
	}
}

// TestBandHartreeNotConvergedEverywhere: when band group 0's Hartree
// solve does not converge, every rank of every band group returns the
// same non-convergence error — the broadcast carries the verdict and
// the residual — and none is left waiting for a potential.
func TestBandHartreeNotConvergedEverywhere(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	testHookHartree = func(_ *Dist, ps *Poisson) { ps.MaxIter = 1 }
	defer func() { testHookHartree = nil }()
	const bands = 2
	procs := topology.Dims{2, 1, 1}
	errs := make([]error, bands*procs.Count())
	runBand(t, global, procs, bands, sys.BC, core.FlatOptimized, func(d *Dist) {
		_, errs[d.World.Rank()] = NewDistSCF(d, sys).Run()
	})
	for r, err := range errs {
		var nc *notConvergedError
		if !errors.As(err, &nc) {
			t.Errorf("rank %d: error %v, want a non-convergence error", r, err)
		} else if err.Error() != errs[0].Error() {
			t.Errorf("rank %d: error %q, rank 0 %q", r, err, errs[0])
		}
	}
}

// TestBandHartreeRankFailureTyped: a band-group-0 rank killed by a
// FaultPlan inside the Hartree solve fails every survivor of both band
// groups with a typed rank failure, never a TimeoutError — the group
// waiting on the v_H broadcast unwinds with the rest.
func TestBandHartreeRankFailureTyped(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	const bands, victim, killIt = 2, 1, 2
	procs := topology.Dims{2, 1, 1}
	p := bands * procs.Count()
	// phase[r] is 2·it from the top of SCF iteration it and 2·it+1 from
	// the start of its Hartree solve on; each rank writes its own slot.
	var phase []int
	testHookHartree = func(d *Dist, _ *Poisson) { phase[d.World.Rank()]++ }
	defer func() { testHookHartree = nil }()
	run := func(afterOps int) []error {
		phase = make([]int, p)
		errs := make([]error, p)
		plan := &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: victim, AfterOps: afterOps}}}
		if err := runRanksWithFaults(p, mpi.ThreadSingle, plan, func(c *mpi.Comm) {
			ft := FTConfig{Configure: func(s *SCF) {
				s.Tol = 1e-4
				s.OnIteration = func(it int) { phase[c.Rank()] = 2 * it }
			}}
			cfg := DistConfig{Global: global, Procs: procs, Bands: bands, Halo: 2, BC: sys.BC,
				Approach: core.FlatOptimized, Threads: 1, Batch: 2}
			_, errs[c.Rank()] = RunSCFFT(c, cfg, sys, ft)
		}); err != nil {
			t.Fatal(err)
		}
		return errs
	}
	// Operation counts are deterministic, so bisection finds the kill
	// counts at which the victim dies entering iteration killIt's solve
	// and leaving it; the test kills halfway between.
	reached := func(ph int) int {
		return sort.Search(1<<20, func(ops int) bool { run(ops); return phase[victim] >= ph })
	}
	enter, leave := reached(2*killIt+1), reached(2*killIt+2)
	t.Logf("victim's operations %d..%d are iteration %d's Hartree solve", enter, leave-1, killIt)
	errs := run((enter + leave) / 2)
	if phase[victim] != 2*killIt+1 {
		t.Fatalf("victim died in phase %d, want inside iteration %d's Hartree solve", phase[victim], killIt)
	}
	for r, err := range errs {
		if r == victim {
			continue
		}
		var rf *mpi.ErrRankFailed
		if !errors.As(err, &rf) || rf.Rank != victim {
			t.Errorf("rank %d (band group %d): error %v, want rank %d's failure", r, r/procs.Count(), err, victim)
		}
	}
}

// TestBandEmptyGroup: more band groups than states leaves a group with
// an empty slice; every collective path must stay consistent and the
// eigenvalues bit-identical.
func TestBandEmptyGroup(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	dims := [3]int{8, 8, 8}
	h := 0.5
	const m = 3 // over 4 band groups: slices 1,1,1,0
	vext := HarmonicPotential(global, h, 1)
	ham := NewHamiltonian(h, vext, Dirichlet)
	es := NewEigenSolver(ham)
	es.Tol = 1e-7
	es.MaxIter = 500
	want, err := es.Solve(m, InitGuess(m, dims, 2))
	if err != nil {
		t.Fatal(err)
	}
	runBand(t, global, topology.Dims{1, 1, 1}, 4, Dirichlet, core.FlatOptimized, func(d *Dist) {
		lo, hi := d.BandRange(m)
		if d.Band == 3 && hi-lo != 0 {
			t.Errorf("band 3 expected empty slice, got %d states", hi-lo)
		}
		dh := NewDistHamiltonian(d, h, d.ScatterReplicated(vext))
		des := NewEigenSolver(dh)
		des.Tol = 1e-7
		des.MaxIter = 500
		eig, err := des.Solve(m, d.InitGuessBand(m, dims))
		if err != nil {
			panic(err)
		}
		for i := range eig {
			if eig[i] != want[i] {
				t.Errorf("empty-group run: eig[%d]=%.17g, serial %.17g", i, eig[i], want[i])
			}
		}
	})
}

// TestBandSmoke is the CI smoke-matrix entry point for the BAND_RANKS
// axis: one quick eigen + SCF differential slice per configured
// bands x domain point, every approach.
func TestBandSmoke(t *testing.T) {
	bands := 2
	if v := os.Getenv("BAND_RANKS"); v != "" {
		var err error
		if bands, err = strconv.Atoi(v); err != nil {
			t.Fatalf("bad BAND_RANKS %q", v)
		}
	}
	global := topology.Dims{8, 8, 8}
	h := 0.7
	sys := scfSystem(global, h)
	sys.Electrons = 8
	scf := NewSCF(sys)
	scf.Tol = 1e-4
	want, err := scf.Run()
	if err != nil {
		t.Fatal(err)
	}
	procs := domainShapes(t)[0]
	if bands*procs.Count() > 8 {
		t.Skipf("bands %d x domain %v exceeds the 8-rank smoke budget", bands, procs)
	}
	for _, a := range core.Approaches {
		runBand(t, global, procs, bands, sys.BC, a, func(d *Dist) {
			ds := NewDistSCF(d, sys)
			ds.Tol = 1e-4
			res, err := ds.Run()
			if err != nil {
				panic(err)
			}
			if res.TotalEnergy != want.TotalEnergy {
				t.Errorf("smoke bands %d procs %v approach %v: E=%.17g, serial %.17g",
					bands, procs, a, res.TotalEnergy, want.TotalEnergy)
			}
		})
	}
}

// GatherBandStates assembles all m global wave-functions on world rank 0
// (band group 0, domain rank 0), returning nil elsewhere: each owner
// group gathers its states over its domain communicator, then the group
// leaders relay interiors to group 0 through the band communicator. The
// differential harness uses it to compare states across layouts bitwise.
func (d *Dist) GatherBandStates(m int, psis []*grid.Grid) []*grid.Grid {
	lo, _ := d.BandRange(m)
	var out []*grid.Grid
	if d.Cart.Rank() == 0 && d.Band == 0 {
		out = make([]*grid.Grid, m)
	}
	for st := 0; st < m; st++ {
		owner := d.bandOwnerOf(m, st)
		var g *grid.Grid
		if owner == d.Band {
			g = d.GatherGlobal(psis[st-lo])
		}
		if d.Cart.Rank() != 0 {
			continue
		}
		switch {
		case d.Band == owner && owner == 0:
			out[st] = g
		case d.Band == owner:
			d.BandComm.Send(0, distTag+2, g.InteriorSlice())
		case d.Band == 0:
			buf := make([]float64, d.Decomp.Global.Count())
			d.BandComm.Recv(owner, distTag+2, buf)
			gg := grid.NewDims(d.Decomp.Global, d.Decomp.Halo)
			gg.SetInterior(buf)
			out[st] = gg
		}
	}
	return out
}

// bandOwnerOf returns the band group owning global state st.
func (d *Dist) bandOwnerOf(m, st int) int {
	for b := 0; b < d.Bands; b++ {
		s, l := topology.Split(m, d.Bands, b)
		if st >= s && st < s+l {
			return b
		}
	}
	panic(fmt.Sprintf("gpaw: state %d outside %d states", st, m))
}
