package gpaw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/topology"
)

// hierarchyOf builds the one-rank context of a dims grid and its
// hierarchy at spacing h.
func hierarchyOf(t *testing.T, dims topology.Dims, h float64, bc Boundary) *multigrid {
	t.Helper()
	mg, err := SelfDist(dims, bc).hierarchy(h)
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

func TestMultigridHierarchy(t *testing.T) {
	// 32 -> 16 -> 8 -> 4: four levels.
	if l := len(hierarchyOf(t, topology.Dims{32, 32, 32}, 0.5, Periodic).levels); l != 4 {
		t.Fatalf("levels = %d, want 4", l)
	}
	// Odd or tiny grids cannot coarsen: one level, whose cycle is the
	// coarsest relaxation.
	for _, dims := range []topology.Dims{{5, 5, 5}, {4, 4, 4}, {11, 11, 11}} {
		if l := len(hierarchyOf(t, dims, 0.5, Periodic).levels); l != 1 {
			t.Fatalf("%v: levels = %d, want 1", dims, l)
		}
	}
	// The hierarchy is the Dist's: built by the first call, not by
	// NewDist, kept while the spacing stays, rebuilt when it changes.
	d := SelfDist(topology.Dims{16, 16, 16}, Dirichlet)
	if d.mg != nil {
		t.Fatal("NewDist built a hierarchy")
	}
	first, _ := d.hierarchy(0.5)
	if again, _ := d.hierarchy(0.5); again != first {
		t.Fatal("same spacing rebuilt the hierarchy")
	}
	if other, _ := d.hierarchy(0.25); other == first {
		t.Fatal("a new spacing reused the old hierarchy")
	}
}

// matchesReference holds the preconditioned solve to the unfused,
// unpreconditioned oracle: same solution, far fewer iterations.
func matchesReference(t *testing.T, rhs *grid.Grid, h float64, bc Boundary) {
	t.Helper()
	ps := NewDistPoisson(SelfDist(rhs.Dims(), bc), h)
	phi, ref := grid.NewDims(rhs.Dims(), 2), grid.NewDims(rhs.Dims(), 2)
	it, rel, err := ps.SolveCG(phi, rhs)
	if err != nil {
		t.Fatalf("preconditioned CG failed after %d iterations (res %g): %v", it, rel, err)
	}
	itRef, _, err := ps.SolveCGReference(ref, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if d := phi.MaxAbsDiff(ref); d > 1e-5 {
		t.Fatalf("%v: preconditioned and reference CG disagree by %g", bc, d)
	}
	if 2*it > itRef && itRef > 4 {
		t.Fatalf("%v: %d preconditioned iterations, reference %d: the V-cycle does not precondition", bc, it, itRef)
	}
}

func TestMultigridMatchesCG(t *testing.T) {
	n := 16
	rhs := grid.New(n, n, n, 2)
	rhs.FillFunc(func(i, j, k int) float64 {
		return math.Sin(2*math.Pi*float64(i)/float64(n))*math.Cos(4*math.Pi*float64(j)/float64(n)) +
			math.Sin(6*math.Pi*float64(k)/float64(n))
	})
	matchesReference(t, rhs, 0.5, Periodic)
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
	matchesReference(t, rhs, h, Dirichlet)
}

// TestPCGIterationsIndependentOfResolution asserts multigrid's defining
// property on the solver that uses it: the preconditioned iteration
// count to Tol from a zero guess is small — at most 14 from 16^3 to 48^3
// — and on the periodic problem does not grow when the grid is refined
// (unpreconditioned CG needs ~2x the iterations per doubling of n). On
// Dirichlet grids it creeps up with the depth of the hierarchy (the
// zero boundary of a cell-centred grid moves outward by half a cell at
// every coarsening), which the bound still covers. An odd grid has the
// one level and still converges.
func TestPCGIterationsIndependentOfResolution(t *testing.T) {
	itersAt := func(n int, bc Boundary) int {
		rhs := grid.New(n, n, n, 2)
		rhs.FillFunc(func(i, j, k int) float64 {
			return math.Sin(2 * math.Pi * float64(i+j+k) / float64(n))
		})
		it, _, err := NewDistPoisson(SelfDist(topology.Dims{n, n, n}, bc), 8.0/float64(n)).SolveCG(grid.New(n, n, n, 2), rhs)
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	for _, bc := range []Boundary{Periodic, Dirichlet} {
		lo, hi := math.MaxInt, 0
		for _, n := range []int{16, 24, 32, 48} {
			it := itersAt(n, bc)
			t.Logf("%v %d^3: %d preconditioned CG iterations to 1e-8", bc, n, it)
			lo, hi = min(lo, it), max(hi, it)
		}
		if hi > 14 || (bc == Periodic && hi-lo > 2) {
			t.Errorf("%v: %d to %d iterations across 16^3..48^3, want <= 14 (periodic: within 2 of each other)", bc, lo, hi)
		}
		t.Logf("%v 11^3 (one level): %d iterations", bc, itersAt(11, bc))
	}
}

// TestPreconditionerSymmetricPositive: conjugate gradients need M⁻¹
// symmetric positive definite — <x, M⁻¹y> = <M⁻¹x, y> and <x, M⁻¹x> > 0.
// Equal pre- and post-smoothing, the restriction/prolongation adjoint
// pair and the fixed coarsest sweep count make it so; held on seeded
// random mean-free fields, both boundary conditions, on one rank and on
// layouts whose deep levels shrink onto fewer ranks.
func TestPreconditionerSymmetricPositive(t *testing.T) {
	global := topology.Dims{16, 16, 16}
	random := func(seed int64) *grid.Grid {
		rng := rand.New(rand.NewSource(seed))
		g := grid.NewDims(global, 2)
		g.FillFunc(func(i, j, k int) float64 { return rng.NormFloat64() })
		removeMeanSerial(g)
		return g
	}
	gx, gy := random(7), random(11)
	for _, bc := range []Boundary{Dirichlet, Periodic} {
		for _, procs := range []topology.Dims{{1, 1, 1}, {4, 1, 1}, {1, 1, 8}} {
			runDist(t, global, procs, bc, core.FlatOptimized, func(d *Dist) {
				mg, err := d.hierarchy(0.35)
				if err != nil {
					panic(err)
				}
				x, y := d.ScatterReplicated(gx), d.ScatterReplicated(gy)
				mx := mg.precondition(x).Clone()
				xMx, yMx := d.Dot(x, mx), d.Dot(y, mx)
				xMy := d.Dot(x, mg.precondition(y))
				if d.Cart.Rank() != 0 {
					return
				}
				if asym := math.Abs(xMy-yMx) / math.Abs(xMy); asym > 1e-12 {
					t.Errorf("%v procs %v: <x,M⁻¹y> = %.17g, <M⁻¹x,y> = %.17g (relative gap %g)", bc, procs, xMy, yMx, asym)
				}
				if xMx <= 0 {
					t.Errorf("%v procs %v: <x,M⁻¹x> = %g, want > 0", bc, procs, xMx)
				}
			})
		}
	}
}
