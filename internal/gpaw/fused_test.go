package gpaw

import (
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/topology"
)

// withWorkers runs body on a one-rank Dirichlet context whose sweeps
// fork-join across a pool of the given worker count.
func withWorkers(t *testing.T, n, workers int, body func(d *Dist)) {
	t.Helper()
	runDistThreads(t, topology.Dims{n, n, n}, topology.Dims{1, 1, 1}, Dirichlet, core.HybridMasterOnly, workers, body)
}

// fusedProblem builds a smooth Dirichlet Poisson problem.
func fusedProblem(n int) (rhs *grid.Grid) {
	rhs = GaussianDensity(topology.Dims{n, n, n}, 0.35, 0.9, 1)
	rhs.Scale(-1)
	return rhs
}

// TestFusedCGMatchesReference: the fused, preconditioned
// conjugate-gradient path must converge to the same solution as the
// unfused, unpreconditioned reference formulation, in fewer iterations.
func TestFusedCGMatchesReference(t *testing.T) {
	rhs := fusedProblem(14)
	ps := NewDistPoisson(SelfDist(rhs.Dims(), Dirichlet), 0.35)

	phiRef := grid.New(14, 14, 14, 2)
	itRef, _, err := ps.SolveCGReference(phiRef, rhs)
	if err != nil {
		t.Fatal(err)
	}
	phiFused := grid.New(14, 14, 14, 2)
	itFused, _, err := ps.SolveCG(phiFused, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if d := phiRef.MaxAbsDiff(phiFused); d > 1e-6 {
		t.Fatalf("fused CG deviates from reference by %g", d)
	}
	if itFused >= itRef {
		t.Fatalf("preconditioning did not cut the iterations: reference %d, fused %d", itRef, itFused)
	}
}

// TestFusedCGWorkerCountInvariant: the fused kernels' pooled reductions
// are exact, so the fused solver's result must be identical for
// every worker count.
func TestFusedCGWorkerCountInvariant(t *testing.T) {
	rhs := fusedProblem(12)
	var ref *grid.Grid
	for _, w := range []int{1, 2, 4, 8} {
		phi := grid.New(12, 12, 12, 2)
		withWorkers(t, 12, w, func(d *Dist) {
			if _, _, err := NewDistPoisson(d, 0.35).SolveCG(phi, rhs); err != nil {
				panic(err)
			}
		})
		if ref == nil {
			ref = phi
		} else if d := ref.MaxAbsDiff(phi); d != 0 {
			t.Fatalf("workers=%d: solution deviates from workers=1 by %g", w, d)
		}
	}
}

// TestFusedCGReducesTraffic is the acceptance assertion for the fused
// execution engine and the preconditioner together: a whole solve —
// V-cycles included — must make measurably fewer full-grid memory
// passes than the unfused, unpreconditioned reference solve, at the
// benchmark's 24^3.
func TestFusedCGReducesTraffic(t *testing.T) {
	rhs := fusedProblem(24)
	ps := NewDistPoisson(SelfDist(rhs.Dims(), Dirichlet), 0.35)

	phi := grid.New(24, 24, 24, 2)
	grid.ResetTraffic()
	itRef, _, err := ps.SolveCGReference(phi, rhs)
	if err != nil {
		t.Fatal(err)
	}
	ref := float64(grid.TrafficPoints())

	phi = grid.New(24, 24, 24, 2)
	grid.ResetTraffic()
	itFused, _, err := ps.SolveCG(phi, rhs)
	if err != nil {
		t.Fatal(err)
	}
	fused := float64(grid.TrafficPoints())
	grid.ResetTraffic()

	t.Logf("grid passes per solve: reference %.0f in %d iterations, fused %.0f in %d (x%.2f)",
		ref/float64(rhs.Points()), itRef, fused/float64(rhs.Points()), itFused, ref/fused)
	if fused >= 0.75*ref {
		t.Fatalf("fused solve moves %.0f point-streams, reference %.0f; want < 75%%", fused, ref)
	}
}

// TestMultigridPoolInvariant: the pooled V-cycle must produce identical
// results for every worker count.
func TestMultigridPoolInvariant(t *testing.T) {
	rhs := fusedProblem(16)
	var ref *grid.Grid
	for _, w := range []int{1, 4} {
		var phi *grid.Grid
		withWorkers(t, 16, w, func(d *Dist) {
			mg, err := d.hierarchy(0.35)
			if err != nil {
				panic(err)
			}
			phi = mg.precondition(rhs)
		})
		if ref == nil {
			ref = phi
		} else if d := ref.MaxAbsDiff(phi); d != 0 {
			t.Fatalf("workers=%d: multigrid deviates by %g", w, d)
		}
	}
}

// TestEigenSolverPoolInvariant: the fused eigensolver must produce
// identical eigenvalues for every worker count.
func TestEigenSolverPoolInvariant(t *testing.T) {
	dims := topology.Dims{10, 10, 10}
	v := HarmonicPotential(dims, 0.4, 0.7)
	var ref []float64
	for _, w := range []int{1, 4} {
		var eig []float64
		withWorkers(t, 10, w, func(d *Dist) {
			es := NewEigenSolver(NewDistHamiltonian(d, 0.4, v))
			es.Tol = 1e-7
			es.MaxIter = 400
			var err error
			if eig, err = es.Solve(2, d.InitGuessBand(2, [3]int{10, 10, 10})); err != nil {
				panic(err)
			}
		})
		if ref == nil {
			ref = eig
		} else {
			for i := range eig {
				if eig[i] != ref[i] {
					t.Fatalf("workers=%d: eigenvalue %d = %.17g, want %.17g", w, i, eig[i], ref[i])
				}
			}
		}
	}
}
