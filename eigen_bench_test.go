package repro

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/pblas"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Benchmarks for the band-parallel dense-subspace layer: SUMMA
// distributed matrix multiplication across process-grid shapes, and the
// band-parallel Rayleigh–Ritz step across bands x ranks layouts; the
// tests below them hold the layer's deterministic properties.

// summaOnce multiplies two n x n matrices over a pr x pc grid and
// returns the replicated product (nil off rank 0).
func summaOnce(a, b linalg.Matrix, pr, pc, blockSize int) linalg.Matrix {
	var out linalg.Matrix
	err := mpi.Run(pr*pc, mpi.ThreadSingle, func(c *mpi.Comm) {
		g, err := pblas.NewGrid2D(c, pr, pc)
		if err != nil {
			panic(err)
		}
		da := pblas.FromReplicated(g, a, blockSize, blockSize)
		db := pblas.FromReplicated(g, b, blockSize, blockSize)
		dc, err := pblas.MatMul(da, db)
		if err != nil {
			panic(err)
		}
		rep := dc.Replicate()
		if c.Rank() == 0 {
			out = rep
		}
	})
	if err != nil {
		panic(err)
	}
	return out
}

// summaOnceModeled is summaOnce under the calibrated network model on a
// simulated torus, with the 2D grid placed by the given mapping. It
// returns the replicated product (nil off rank 0) and the deterministic
// virtual makespan of the multiply.
func summaOnceModeled(a, b linalg.Matrix, pr, pc, blockSize int, m topology.Mapping) (linalg.Matrix, time.Duration) {
	nm := bgpsim.NetModelFor(pr * pc)
	nm.Coords = pblas.MapGrid2D(pr, pc, nm.Net, m)
	nm.NoComputeWall = true
	var out linalg.Matrix
	mk, err := mpi.RunModeled(pr*pc, mpi.ThreadSingle, nm, func(c *mpi.Comm) {
		g, err := pblas.NewGrid2D(c, pr, pc)
		if err != nil {
			panic(err)
		}
		da := pblas.FromReplicated(g, a, blockSize, blockSize)
		db := pblas.FromReplicated(g, b, blockSize, blockSize)
		dc, err := pblas.MatMul(da, db)
		if err != nil {
			panic(err)
		}
		rep := dc.Replicate()
		if c.Rank() == 0 {
			out = rep
		}
	})
	if err != nil {
		panic(err)
	}
	return out, mk
}

// summaProfile is summaOnceModeled with a tracer armed, reduced to the
// virtual-clock per-phase profile of the multiply. Deterministic
// (NoComputeWall): every number is a model prediction.
func summaProfile(a, b linalg.Matrix, pr, pc, blockSize int) *trace.Profile {
	p := pr * pc
	nm := bgpsim.NetModelFor(p)
	nm.Coords = pblas.MapGrid2D(pr, pc, nm.Net, topology.MapCart)
	nm.NoComputeWall = true
	tr := trace.New(p, 1<<15)
	w := mpi.NewWorld(p, mpi.ThreadSingle)
	w.SetNetModel(nm)
	w.SetTracer(tr)
	err := w.Run(func(c *mpi.Comm) {
		g, err := pblas.NewGrid2D(c, pr, pc)
		if err != nil {
			panic(err)
		}
		da := pblas.FromReplicated(g, a, blockSize, blockSize)
		db := pblas.FromReplicated(g, b, blockSize, blockSize)
		if _, err := pblas.MatMul(da, db); err != nil {
			panic(err)
		}
	})
	if err != nil {
		panic(err)
	}
	return tr.Profile(trace.Virtual)
}

// benchMatrices builds deterministic n x n operands.
func benchMatrices(n int) (a, b linalg.Matrix) {
	a, b = linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = math.Sin(float64(i*n+j)) * 0.25
			b[i][j] = math.Cos(float64(i-2*j)) * 0.25
		}
	}
	return a, b
}

// BenchmarkSUMMA measures the distributed GEMM across grid shapes
// (in-process ranks; 1x1 is the degenerate serial layout).
func BenchmarkSUMMA(b *testing.B) {
	const n, blockSize = 96, 8
	am, bm := benchMatrices(n)
	for _, shape := range [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}} {
		b.Run(fmt.Sprintf("grid%dx%d", shape[0], shape[1]), func(b *testing.B) {
			b.SetBytes(int64(3 * n * n * 8))
			for i := 0; i < b.N; i++ {
				summaOnce(am, bm, shape[0], shape[1], blockSize)
			}
		})
	}
}

// bandRROnce runs one band-parallel Rayleigh–Ritz step over a
// bands x domain layout and returns the Ritz values.
func bandRROnce(global topology.Dims, m, bands int, procs topology.Dims, vext *grid.Grid, h float64) []float64 {
	var eig []float64
	err := mpi.Run(bands*procs.Count(), mpi.ThreadSingle, func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, gpaw.DistConfig{
			Global: global, Procs: procs, Bands: bands, Halo: 2,
			BC: gpaw.Dirichlet, Approach: core.FlatOptimized, Batch: 2,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		psis := d.InitGuessBand(m, [3]int{global[0], global[1], global[2]})
		dh := gpaw.NewDistHamiltonian(d, h, d.ScatterReplicated(vext))
		e, err := dh.RayleighRitz(m, psis)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			eig = e
		}
	})
	if err != nil {
		panic(err)
	}
	return eig
}

// BenchmarkBandRayleighRitz measures one subspace-assembly +
// diagonalization + rotation step across bands x ranks layouts on a
// 16^3 grid with 8 states.
func BenchmarkBandRayleighRitz(b *testing.B) {
	global := topology.Dims{16, 16, 16}
	const m = 8
	h := 0.5
	vext := gpaw.HarmonicPotential(global, h, 1)
	for _, l := range []struct {
		bands int
		procs topology.Dims
	}{
		{1, topology.Dims{1, 1, 1}},
		{2, topology.Dims{1, 1, 1}},
		{4, topology.Dims{1, 1, 1}},
		{2, topology.Dims{1, 1, 2}},
		{4, topology.Dims{1, 1, 2}},
	} {
		b.Run(fmt.Sprintf("bands%d_ranks%d", l.bands, l.bands*l.procs.Count()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bandRROnce(global, m, l.bands, l.procs, vext, h)
			}
		})
	}
}

// TestBandRayleighRitzLayoutInvariant: the Ritz values of one
// band-parallel Rayleigh–Ritz step must have the same bits on every
// bands x domain layout.
func TestBandRayleighRitzLayoutInvariant(t *testing.T) {
	global := topology.Dims{12, 12, 12}
	const m = 6
	h := 0.5
	vext := gpaw.HarmonicPotential(global, h, 1)
	var ref []float64
	for _, l := range []struct {
		bands int
		procs topology.Dims
	}{
		{1, topology.Dims{1, 1, 1}},
		{2, topology.Dims{1, 1, 1}},
		{2, topology.Dims{1, 1, 2}},
		{4, topology.Dims{1, 1, 2}},
	} {
		eig := bandRROnce(global, m, l.bands, l.procs, vext, h)
		if ref == nil {
			ref = eig
		}
		for i := range eig {
			if eig[i] != ref[i] {
				t.Errorf("bands %d procs %v: Ritz value %d = %.17g deviates from %.17g",
					l.bands, l.procs, i, eig[i], ref[i])
			}
		}
	}
}

// TestCalibratedSUMMAMatchesEagerAndCartBeatsShuffle: the calibrated
// model only reorders time, so a modeled 4x4 SUMMA product must equal
// the eager run's bitwise; and at 64 ranks the Cartesian placement must
// be cheaper than the shuffled one.
func TestCalibratedSUMMAMatchesEagerAndCartBeatsShuffle(t *testing.T) {
	am, bm := benchMatrices(64)
	eager := summaOnce(am, bm, 4, 4, 8)
	out, _ := summaOnceModeled(am, bm, 4, 4, 8, topology.MapCart)
	for i := range out {
		for j := range out[i] {
			if out[i][j] != eager[i][j] {
				t.Fatalf("calibrated SUMMA product deviates from eager at (%d,%d): %.17g vs %.17g",
					i, j, out[i][j], eager[i][j])
			}
		}
	}
	_, cartMk := summaOnceModeled(am, bm, 8, 8, 8, topology.MapCart)
	_, shufMk := summaOnceModeled(am, bm, 8, 8, 8, topology.MapShuffle)
	if cartMk >= shufMk {
		t.Errorf("64-rank SUMMA: cart placement (%v) not cheaper than shuffle (%v)", cartMk, shufMk)
	}
}

// TestTracedSUMMAProfile: local GEMM charges no modeled compute, so
// under the virtual clock a traced 4x4 SUMMA profile is all
// communication, with the broadcast traffic and one summa region per
// rank on the timeline.
func TestTracedSUMMAProfile(t *testing.T) {
	am, bm := benchMatrices(64)
	prof := summaProfile(am, bm, 4, 4, 8)
	if prof.CommNs <= 0 {
		t.Errorf("traced SUMMA profile lacks comm self time (%dns)", prof.CommNs)
	}
	summaCount := int64(0)
	for _, ps := range prof.Phases {
		if ps.Name == "pblas.summa" {
			summaCount = ps.Count
		}
	}
	if summaCount != 16 {
		t.Errorf("traced SUMMA profile has %d pblas.summa regions, want one per rank (16)", summaCount)
	}
}
