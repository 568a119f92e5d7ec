package stencil

import (
	"math/rand"
	"testing"

	"repro/internal/detsum"
	"repro/internal/grid"
)

// coverCount marks every point covered by the interior block plus the
// shell blocks of an (nx, ny, nz, r) sweep and returns the per-point
// visit counts.
func coverCount(nx, ny, nz, r int) []int {
	mark := make([]int, nx*ny*nz)
	stamp := func(b Block) {
		for i := b.X0; i < b.X1; i++ {
			for j := b.Y0; j < b.Y1; j++ {
				for k := b.Z0; k < b.Z1; k++ {
					mark[(i*ny+j)*nz+k]++
				}
			}
		}
	}
	stamp(InteriorBlock(nx, ny, nz, r))
	for _, b := range AppendShellBlocks(nil, nx, ny, nz, r) {
		stamp(b)
	}
	return mark
}

// checkCover fails unless interior + shell cover every point of the
// sweep exactly once.
func checkCover(t *testing.T, nx, ny, nz, r int) {
	t.Helper()
	for p, c := range coverCount(nx, ny, nz, r) {
		if c != 1 {
			i := p / (ny * nz)
			j := (p / nz) % ny
			k := p % nz
			t.Fatalf("extents (%d,%d,%d) r=%d: point (%d,%d,%d) covered %d times, want exactly 1",
				nx, ny, nz, r, i, j, k, c)
		}
	}
}

// TestShellCoverageExhaustiveSmall sweeps every extent combination up
// to 7 with radii 0..3, including all the degenerate cases (extent
// smaller than the radius, smaller than twice the radius, equal to it).
func TestShellCoverageExhaustiveSmall(t *testing.T) {
	for nx := 1; nx <= 7; nx++ {
		for ny := 1; ny <= 7; ny++ {
			for nz := 1; nz <= 7; nz++ {
				for r := 0; r <= 3; r++ {
					checkCover(t, nx, ny, nz, r)
				}
			}
		}
	}
}

// FuzzShellCoverage: for arbitrary extents and radii — the shapes
// random rank decompositions produce — the interior + shell split must
// cover every point exactly once.
func FuzzShellCoverage(f *testing.F) {
	f.Add(16, 16, 16, 2)
	f.Add(8, 3, 5, 2)
	f.Add(1, 1, 1, 3)
	f.Add(4, 9, 2, 1)
	f.Add(5, 4, 4, 2)
	clamp := func(v, m int) int {
		if v < 0 {
			v = -v
		}
		return v % m
	}
	f.Fuzz(func(t *testing.T, nx, ny, nz, r int) {
		// Clamp to the extents a decomposition can actually produce;
		// coverage is what is being fuzzed, not argument validation.
		checkCover(t, 1+clamp(nx, 20), 1+clamp(ny, 20), 1+clamp(nz, 20), clamp(r, 5))
	})
}

// TestShellCoverageRandomDecompositions slices a global grid with
// random process grids (the sub-domain shapes the distributed solvers
// hand the kernels) and checks the split on every resulting local
// extent.
func TestShellCoverageRandomDecompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		global := [3]int{1 + rng.Intn(24), 1 + rng.Intn(24), 1 + rng.Intn(24)}
		procs := [3]int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
		r := 1 + rng.Intn(3)
		// Every split of n over p yields extents n/p or n/p+1.
		dims := [3][]int{}
		for d := 0; d < 3; d++ {
			if procs[d] > global[d] {
				procs[d] = global[d]
			}
			lo := global[d] / procs[d]
			dims[d] = []int{lo}
			if lo*procs[d] != global[d] {
				dims[d] = append(dims[d], lo+1)
			}
		}
		for _, nx := range dims[0] {
			for _, ny := range dims[1] {
				for _, nz := range dims[2] {
					checkCover(t, nx, ny, nz, r)
				}
			}
		}
	}
}

// shellOperand builds deterministic halo-filled grids for the split
// equivalence tests.
func shellOperand(nx, ny, nz int, seed float64) *grid.Grid {
	g := grid.New(nx, ny, nz, 2)
	g.FillFunc(func(i, j, k int) float64 {
		return seed + float64((i*37+j*17+k*5)%29)/7 - 2
	})
	g.FillHalosPeriodic()
	return g
}

// TestRegionsMatchFullBitwise: for every fusion, the Interior sweep
// followed by the Shell sweep must reproduce the Full sweep bitwise —
// outputs and Acc sums — and account the same memory traffic, across
// worker counts and the degenerate extents (n < 2R) where the interior
// is thin or empty. Each kernel is narrowed both ways: built on the
// op.Over(r) view, and built on the Full operator and narrowed with
// Kernel.Over(r), as internal/gpaw does.
func TestRegionsMatchFullBitwise(t *testing.T) {
	type operands struct{ src, rhs, v *grid.Grid }
	// Each fusion builds its kernel on the operator it is handed and
	// names the prev grid it is applied with (nil for none).
	fusions := []struct {
		name   string
		kernel func(op *Operator, in operands) (Kernel, *grid.Grid)
	}{
		{"Apply", func(op *Operator, _ operands) (Kernel, *grid.Grid) { return Kernel{op: op}, nil }},
		{"ApplyParallel", func(op *Operator, _ operands) (Kernel, *grid.Grid) { return Kernel{op: op, tiled: true}, nil }},
		{"Dot", func(op *Operator, _ operands) (Kernel, *grid.Grid) { return op.Dot(), nil }},
		{"Residual", func(op *Operator, in operands) (Kernel, *grid.Grid) { return op.Residual(in.rhs), nil }},
		{"Smooth", func(op *Operator, in operands) (Kernel, *grid.Grid) { return op.Smooth(in.rhs, 0.31), nil }},
		// Step with and without a potential, over its three coefficient
		// fast paths.
		{"Step(v,1,0)", func(op *Operator, in operands) (Kernel, *grid.Grid) { return op.Step(in.v, 1, 0, 0), nil }},
		{"Step(v,-0.01,1)", func(op *Operator, in operands) (Kernel, *grid.Grid) { return op.Step(in.v, -0.01, 1, 0), nil }},
		{"Step(v,0.5,-0.25)", func(op *Operator, in operands) (Kernel, *grid.Grid) { return op.Step(in.v, 0.5, -0.25, 0), nil }},
		{"Step(nil,-0.02,1)", func(op *Operator, _ operands) (Kernel, *grid.Grid) { return op.Step(nil, -0.02, 1, 0), nil }},
		// The three-term recurrence, prev a separate grid.
		{"Step(v,prev)", func(op *Operator, in operands) (Kernel, *grid.Grid) {
			return op.Step(in.v, 0.5, -0.25, -0.75), in.rhs
		}},
	}
	op := Laplacian(2, 0.6)
	shapes := [][3]int{{12, 10, 8}, {4, 12, 12}, {12, 3, 12}, {12, 12, 2}, {3, 3, 3}, {5, 4, 9}, {1, 1, 1}}
	defer grid.ResetTraffic()
	for _, sh := range shapes {
		nx, ny, nz := sh[0], sh[1], sh[2]
		in := operands{shellOperand(nx, ny, nz, 0.25), shellOperand(nx, ny, nz, -1.5), shellOperand(nx, ny, nz, 0.75)}
		for _, w := range []int{1, 3} {
			p := NewPool(w)
			for _, f := range fusions {
				var fullAcc detsum.Acc
				full := grid.New(nx, ny, nz, 2)
				grid.ResetTraffic()
				k, prev := f.kernel(op, in)
				k.Apply(p, full, in.src, prev, &fullAcc)
				fullTraffic := grid.TrafficPoints()

				for _, order := range []string{"op.Over", "Kernel.Over"} {
					// The split output starts from a value no kernel
					// produces, so a point neither region writes shows up.
					var splitAcc detsum.Acc
					split := grid.New(nx, ny, nz, 2)
					split.Fill(1e300)
					grid.ResetTraffic()
					for _, r := range []Region{Interior, Shell} {
						k, prev := f.kernel(op.Over(r), in)
						if order == "Kernel.Over" {
							k, prev = f.kernel(op, in)
							k = k.Over(r)
						}
						k.Apply(p, split, in.src, prev, &splitAcc)
					}
					if d := split.MaxAbsDiff(full); d != 0 {
						t.Errorf("%v w=%d %s by %s: Interior+Shell output deviates from Full by %g", sh, w, f.name, order, d)
					}
					if got, want := splitAcc.Round(), fullAcc.Round(); got != want {
						t.Errorf("%v w=%d %s by %s: Interior+Shell sum %.17g, Full %.17g", sh, w, f.name, order, got, want)
					}
					if got := grid.TrafficPoints(); got != fullTraffic {
						t.Errorf("%v w=%d %s by %s: Interior+Shell traffic %d, Full %d", sh, w, f.name, order, got, fullTraffic)
					}
				}
			}
			p.Close()
		}
		for _, rg := range []Region{Interior, Shell} {
			if op.Over(rg).Over(Full) != op {
				t.Fatalf("view %d does not lead back to the Full operator", rg)
			}
		}
		if in, sh3 := Interior.Points(nx, ny, nz, 2), Shell.Points(nx, ny, nz, 2); in+sh3 != Full.Points(nx, ny, nz, 2) || in+sh3 != nx*ny*nz {
			t.Errorf("%v: Interior %d + Shell %d points != %d", sh, in, sh3, nx*ny*nz)
		}
	}
}
