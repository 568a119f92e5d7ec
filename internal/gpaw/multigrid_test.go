package gpaw

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/topology"
)

func TestMultigridHierarchy(t *testing.T) {
	mg, err := NewMultigrid(topology.Dims{32, 32, 32}, 0.5, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	// 32 -> 16 -> 8 -> 4: four levels.
	if mg.Levels() != 4 {
		t.Fatalf("levels = %d, want 4", mg.Levels())
	}
	// Odd or tiny grids are rejected.
	if _, err := NewMultigrid(topology.Dims{5, 5, 5}, 0.5, Periodic); err == nil {
		t.Fatal("odd grid accepted")
	}
	if _, err := NewMultigrid(topology.Dims{4, 4, 4}, 0.5, Periodic); err == nil {
		t.Fatal("coarsest-only grid accepted")
	}
}

func TestMultigridMatchesCG(t *testing.T) {
	n := 16
	h := 0.5
	rhs := grid.New(n, n, n, 2)
	rhs.FillFunc(func(i, j, k int) float64 {
		return math.Sin(2*math.Pi*float64(i)/float64(n)) * math.Cos(4*math.Pi*float64(j)/float64(n))
	})
	mg, err := NewMultigrid(topology.Dims{n, n, n}, h, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	mgPhi := grid.New(n, n, n, 2)
	cycles, rel, err := mg.Solve(mgPhi, rhs)
	if err != nil {
		t.Fatalf("multigrid failed after %d cycles (res %g): %v", cycles, rel, err)
	}
	cgPhi := grid.New(n, n, n, 2)
	ps := NewPoisson(h, Periodic)
	if _, _, err := ps.SolveCG(cgPhi, rhs); err != nil {
		t.Fatal(err)
	}
	if d := mgPhi.MaxAbsDiff(cgPhi); d > 1e-5 {
		t.Fatalf("multigrid and CG disagree by %g", d)
	}
}

func TestMultigridDirichlet(t *testing.T) {
	n := 16
	h := 0.4
	rhs := grid.New(n, n, n, 2)
	rhs.FillFunc(func(i, j, k int) float64 {
		x := float64(i-n/2) * h
		y := float64(j-n/2) * h
		z := float64(k-n/2) * h
		return math.Exp(-(x*x + y*y + z*z))
	})
	mg, err := NewMultigrid(topology.Dims{n, n, n}, h, Dirichlet)
	if err != nil {
		t.Fatal(err)
	}
	phi := grid.New(n, n, n, 2)
	if _, rel, err := mg.Solve(phi, rhs); err != nil {
		t.Fatalf("dirichlet multigrid: %v (res %g)", err, rel)
	}
	cgPhi := grid.New(n, n, n, 2)
	ps := NewPoisson(h, Dirichlet)
	if _, _, err := ps.SolveCG(cgPhi, rhs); err != nil {
		t.Fatal(err)
	}
	if d := phi.MaxAbsDiff(cgPhi); d > 1e-5 {
		t.Fatalf("multigrid and CG disagree by %g", d)
	}
}

// TestMultigridCyclesIndependentOfResolution asserts multigrid's
// defining property directly: the V-cycle count to Tol is small and does
// not grow when the grid is refined (an unpreconditioned relaxation
// needs ~4x the sweeps per doubling of n).
func TestMultigridCyclesIndependentOfResolution(t *testing.T) {
	cyclesAt := func(n int) int {
		rhs := grid.New(n, n, n, 2)
		rhs.FillFunc(func(i, j, k int) float64 {
			return math.Sin(2 * math.Pi * float64(i+j+k) / float64(n))
		})
		mg, err := NewMultigrid(topology.Dims{n, n, n}, 8.0/float64(n), Periodic)
		if err != nil {
			t.Fatal(err)
		}
		cycles, _, err := mg.Solve(grid.New(n, n, n, 2), rhs)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	c16, c32 := cyclesAt(16), cyclesAt(32)
	t.Logf("V-cycles to Tol: 16^3 %d, 32^3 %d", c16, c32)
	if c16 > 25 || c32 > 25 {
		t.Fatalf("multigrid needed %d (16^3) / %d (32^3) cycles, want <= 25", c16, c32)
	}
	if c32 > c16+2 {
		t.Fatalf("V-cycle count grew with resolution: %d at 16^3, %d at 32^3", c16, c32)
	}
}

func TestMultigridValidation(t *testing.T) {
	mg, err := NewMultigrid(topology.Dims{16, 16, 16}, 0.5, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	wrong := grid.New(8, 8, 8, 2)
	if _, _, err := mg.Solve(wrong, wrong); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// Zero RHS short-circuits.
	phi := grid.New(16, 16, 16, 2)
	phi.Fill(2)
	if cyc, rel, err := mg.Solve(phi, grid.New(16, 16, 16, 2)); err != nil || cyc != 0 || rel != 0 {
		t.Fatalf("zero rhs: %d %g %v", cyc, rel, err)
	}
	if phi.Norm2() != 0 {
		t.Fatal("zero rhs should zero the solution")
	}
}
