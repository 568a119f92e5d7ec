package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// TestMakeBatchesProperty: for any grid count, batch size and ramp flag,
// the batches Schedule computes tile [0, n) contiguously with every
// batch within size.
func TestMakeBatchesProperty(t *testing.T) {
	f := func(nRaw, sizeRaw uint16, ramp bool) bool {
		n := int(nRaw % 500)
		size := int(sizeRaw%64) + 1
		bs := scheduledBatches(n, size, ramp)
		pos := 0
		for _, b := range bs {
			if b.Lo != pos || b.Size() < 1 || b.Size() > size {
				return false
			}
			pos = b.Hi
		}
		return pos == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWithKineticOperator runs the distributed engine with the
// DFT kinetic operator -(1/2)∇² instead of the bare Laplacian,
// demonstrating the engine is operator-agnostic and matches the
// Hamiltonian's sequential application.
func TestEngineWithKineticOperator(t *testing.T) {
	global := topology.Dims{12, 12, 12}
	const procs = 4
	procGrid := topology.DecomposeGrid(procs, global)
	decomp := grid.MustDecomp(global, procGrid, 2)
	// The DFT kinetic operator -(1/2)∇², built directly so the engine's
	// tests stay independent of the solver package (which now imports
	// core for its distributed layer).
	kin := stencil.Laplacian(2, 0.4).Scaled(-0.5)

	// Sequential reference: H with V = nil and periodic halos.
	seqSrc := grid.NewDims(global, 2)
	seqSrc.FillFunc(func(i, j, k int) float64 { return TestField(0, i, j, k) })
	seqDst := grid.NewDims(global, 2)
	kin.ApplyPeriodicReference(seqDst, seqSrc)

	out := grid.NewDims(global, 0)
	err := runRanks(procs, mpi.ThreadSingle, func(c *mpi.Comm) {
		cart := c.CartCreate(procGrid, [3]bool{true, true, true}, true)
		eng, err := NewEngine(cart, decomp, kin, true, OptionsFor(FlatOptimized, 2, 1))
		if err != nil {
			panic(err)
		}
		coord := eng.Coord()
		off := decomp.Offset(coord)
		src := eng.NewLocalGrid()
		src.FillFunc(func(i, j, k int) float64 {
			return TestField(0, off[0]+i, off[1]+j, off[2]+k)
		})
		dst := eng.NewLocalGrid()
		eng.Apply(FlatOptimized, []*grid.Grid{dst}, []*grid.Grid{src})
		// Gather on rank 0.
		if c.Rank() == 0 {
			decomp.Gather(out, coord, dst)
			buf := make([]float64, decomp.MaxLocalPoints())
			for r := 1; r < procs; r++ {
				rc := procGrid.Coord(r)
				n := decomp.LocalDims(rc).Count()
				c.Recv(r, 0, buf[:n])
				lg := grid.NewDims(decomp.LocalDims(rc), 0)
				lg.SetInterior(buf[:n])
				decomp.Gather(out, rc, lg)
			}
		} else {
			c.Send(0, 0, dst.InteriorSlice())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := out.MaxAbsDiff(seqDst); d != 0 {
		t.Fatalf("distributed kinetic application deviates by %g", d)
	}
}

// TestDistributedOrthogonalization demonstrates the property the paper
// calls out in section IV: because every rank owns the SAME sub-domain
// of EVERY grid, inner products between wave-functions reduce to a
// per-rank partial dot plus one Allreduce — which is why GPAW cannot
// assign different grids to different ranks (and why the flat
// split-groups variant of section VII is unusable in practice).
func TestDistributedOrthogonalization(t *testing.T) {
	global := topology.Dims{10, 10, 10}
	const procs = 8
	const nGrids = 5
	procGrid := topology.DecomposeGrid(procs, global)
	decomp := grid.MustDecomp(global, procGrid, 2)

	// Sequential overlap matrix.
	seq := make([]*grid.Grid, nGrids)
	for g := range seq {
		seq[g] = grid.NewDims(global, 2)
		g := g
		seq[g].FillFunc(func(i, j, k int) float64 { return TestField(g, i, j, k) })
	}
	want := linalg.NewMatrix(nGrids, nGrids)
	for a := 0; a < nGrids; a++ {
		for b := 0; b < nGrids; b++ {
			want[a][b] = seq[a].Dot(seq[b])
		}
	}

	got := linalg.NewMatrix(nGrids, nGrids)
	err := runRanks(procs, mpi.ThreadSingle, func(c *mpi.Comm) {
		cart := c.CartCreate(procGrid, [3]bool{true, true, true}, true)
		coord := cart.Coords(c.Rank())
		off := decomp.Offset(coord)
		local := make([]*grid.Grid, nGrids)
		for g := range local {
			local[g] = decomp.NewLocal(coord)
			g := g
			local[g].FillFunc(func(i, j, k int) float64 {
				return TestField(g, off[0]+i, off[1]+j, off[2]+k)
			})
		}
		// Partial overlap matrix, then one Allreduce over all entries.
		partial := make([]float64, nGrids*nGrids)
		for a := 0; a < nGrids; a++ {
			for b := 0; b < nGrids; b++ {
				partial[a*nGrids+b] = local[a].Dot(local[b])
			}
		}
		sum := make([]float64, len(partial))
		c.Allreduce(mpi.OpSum, partial, sum)
		if c.Rank() == 0 {
			for a := 0; a < nGrids; a++ {
				for b := 0; b < nGrids; b++ {
					got[a][b] = sum[a*nGrids+b]
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("distributed overlap matrix deviates by %g", d)
	}
}

// TestDistributedPoissonJacobi runs a few damped Jacobi sweeps of the
// Poisson equation through the distributed engine (halo exchange per
// sweep) and checks the iterates match the sequential solver exactly —
// the Poisson half of GPAW's FD workload on the real runtime.
func TestDistributedPoissonJacobi(t *testing.T) {
	global := topology.Dims{12, 12, 12}
	const procs = 8
	const sweeps = 10
	h := 0.5
	omega := 0.7
	procGrid := topology.DecomposeGrid(procs, global)
	decomp := grid.MustDecomp(global, procGrid, 2)

	rhsOf := func(i, j, k int) float64 {
		return math.Sin(2*math.Pi*float64(i)/12) * math.Cos(2*math.Pi*float64(j)/12)
	}

	// Sequential reference sweeps with the Poisson solver's radius-2
	// Laplacian.
	op := stencil.Laplacian(2, h)
	seqPhi := grid.NewDims(global, 2)
	seqRhs := grid.NewDims(global, 2)
	seqRhs.FillFunc(rhsOf)
	seqTmp := grid.NewDims(global, 2)
	for s := 0; s < sweeps; s++ {
		seqPhi.FillHalosPeriodic()
		op.Apply(seqTmp, seqPhi)
		// phi += omega/diag * (rhs - A phi)
		seqTmp.Scale(-1)
		seqTmp.Axpy(1, seqRhs)
		seqPhi.Axpy(omega/op.Center, seqTmp)
	}

	out := grid.NewDims(global, 0)
	err := runRanks(procs, mpi.ThreadSingle, func(c *mpi.Comm) {
		cart := c.CartCreate(procGrid, [3]bool{true, true, true}, true)
		eng, err := NewEngine(cart, decomp, op, true, OptionsFor(FlatOptimized, 1, 1))
		if err != nil {
			panic(err)
		}
		coord := eng.Coord()
		off := decomp.Offset(coord)
		phi := eng.NewLocalGrid()
		rhs := eng.NewLocalGrid()
		rhs.FillFunc(func(i, j, k int) float64 { return rhsOf(off[0]+i, off[1]+j, off[2]+k) })
		tmp := eng.NewLocalGrid()
		for s := 0; s < sweeps; s++ {
			eng.Apply(FlatOptimized, []*grid.Grid{tmp}, []*grid.Grid{phi})
			tmp.Scale(-1)
			tmp.Axpy(1, rhs)
			phi.Axpy(omega/op.Center, tmp)
		}
		if c.Rank() == 0 {
			decomp.Gather(out, coord, phi)
			buf := make([]float64, decomp.MaxLocalPoints())
			for r := 1; r < procs; r++ {
				rc := procGrid.Coord(r)
				n := decomp.LocalDims(rc).Count()
				c.Recv(r, 0, buf[:n])
				lg := grid.NewDims(decomp.LocalDims(rc), 0)
				lg.SetInterior(buf[:n])
				decomp.Gather(out, rc, lg)
			}
		} else {
			c.Send(0, 0, phi.InteriorSlice())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := out.MaxAbsDiff(seqPhi); d != 0 {
		t.Fatalf("distributed Jacobi iterate deviates by %g after %d sweeps", d, sweeps)
	}
}

// TestAllApproachesAgreeWithEachOther cross-checks the four approaches
// pairwise on a workload where batching, ramping and uneven splits all
// engage at once.
func TestAllApproachesAgreeWithEachOther(t *testing.T) {
	outputs := make(map[Approach]*grid.Set)
	for _, a := range Approaches {
		j := Job{
			Global:     topology.Dims{14, 10, 12},
			NumGrids:   7,
			Radius:     2,
			Spacing:    0.35,
			Periodic:   true,
			Cores:      8,
			Threads:    4,
			Approach:   a,
			BatchSize:  3,
			BatchRamp:  true,
			Iterations: 3,
		}
		res, err := j.Run(true)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		outputs[a] = res.Output
	}
	ref := outputs[FlatOriginal]
	for _, a := range Approaches[1:] {
		if d := ref.MaxAbsDiff(outputs[a]); d != 0 {
			t.Fatalf("%v deviates from %v by %g", a, FlatOriginal, d)
		}
	}
}

// TestTestFieldDeterministic pins the initial-condition generator: the
// same arguments always give the same value, and distinct grids differ.
func TestTestFieldDeterministic(t *testing.T) {
	if TestField(1, 2, 3, 4) != TestField(1, 2, 3, 4) {
		t.Fatal("TestField not deterministic")
	}
	if TestField(0, 5, 5, 5) == TestField(1, 5, 5, 5) {
		t.Fatal("TestField should differ between grids")
	}
	f := func(g, x, y, z uint8) bool {
		v := TestField(int(g), int(x), int(y), int(z))
		return !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyReportsDeviation ensures Verify would actually catch a wrong
// engine: perturb the sequential reference and check the comparison is
// sensitive.
func TestVerifyReportsDeviation(t *testing.T) {
	j := Job{
		Global: topology.Dims{8, 8, 8}, NumGrids: 2, Radius: 2, Spacing: 0.5,
		Periodic: true, Cores: 2, Threads: 1, Approach: FlatOptimized,
		BatchSize: 1, Iterations: 1,
	}
	res, err := j.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	want := j.Sequential()
	if res.Output.MaxAbsDiff(want) != 0 {
		t.Fatal("engine broken")
	}
	// Perturb one cell: the diff must be exactly the perturbation.
	want.Grids[1].Set(3, 3, 3, want.Grids[1].At(3, 3, 3)+1e-3)
	if d := res.Output.MaxAbsDiff(want); math.Abs(d-1e-3) > 1e-12 {
		t.Fatalf("comparison insensitive: %g", d)
	}
}
