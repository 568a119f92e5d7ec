package pblas

import (
	"math"
	"testing"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
)

// SUMMA under the calibrated network model: the model only reorders
// time, so products keep their bits, placement shows in the virtual
// makespan, and a traced multiply profiles as pure communication.

// summaMatrices builds deterministic n x n operands.
func summaMatrices(n int) (a, b linalg.Matrix) {
	a, b = linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = math.Sin(float64(i*n+j)) * 0.25
			b[i][j] = math.Cos(float64(i-2*j)) * 0.25
		}
	}
	return a, b
}

// summaOn multiplies a and b over a pr x pc grid on w and returns the
// replicated product and w's virtual makespan (zero without a model).
func summaOn(t *testing.T, w *mpi.World, a, b linalg.Matrix, pr, pc, blockSize int) (linalg.Matrix, time.Duration) {
	t.Helper()
	var out linalg.Matrix
	err := w.Run(func(c *mpi.Comm) {
		g, err := NewGrid2D(c, pr, pc)
		if err != nil {
			panic(err)
		}
		dc, err := MatMul(FromReplicated(g, a, blockSize, blockSize), FromReplicated(g, b, blockSize, blockSize))
		if err != nil {
			panic(err)
		}
		rep := dc.Replicate()
		if c.Rank() == 0 {
			out = rep
		}
	})
	if err != nil {
		t.Fatalf("SUMMA on %dx%d: %v", pr, pc, err)
	}
	return out, w.MaxVirtualTime()
}

// modeledWorld is a testWorld under the calibrated BG/P model with the
// pr x pc grid (row-major: rank r at grid coordinate (r/pc, r%pc))
// placed by mapping m as a 1 x pr x pc box, so MapCart keeps grid rows
// and columns torus-contiguous — SUMMA's row and column broadcasts
// become nearest-neighbour pipelines. NoComputeWall makes the makespans
// exact.
func modeledWorld(pr, pc int, m topology.Mapping) *mpi.World {
	nm := bgpsim.NetModelFor(pr * pc)
	nm.Coords = topology.MapGrid(topology.Dims{1, pr, pc}, nm.Net, m)
	nm.NoComputeWall = true
	w := testWorld(pr * pc)
	w.SetNetModel(nm)
	return w
}

// TestCalibratedSUMMAMatchesEagerAndCartBeatsShuffle: a modeled 4x4
// SUMMA product must equal the eager run's bitwise; and at 64 ranks the
// Cartesian placement must be cheaper than the shuffled one.
func TestCalibratedSUMMAMatchesEagerAndCartBeatsShuffle(t *testing.T) {
	am, bm := summaMatrices(64)
	eager, _ := summaOn(t, testWorld(16), am, bm, 4, 4, 8)
	out, _ := summaOn(t, modeledWorld(4, 4, topology.MapCart), am, bm, 4, 4, 8)
	if !bitEqual(out, eager) {
		t.Fatal("calibrated SUMMA product deviates from the eager one")
	}
	_, cartMk := summaOn(t, modeledWorld(8, 8, topology.MapCart), am, bm, 8, 8, 8)
	_, shufMk := summaOn(t, modeledWorld(8, 8, topology.MapShuffle), am, bm, 8, 8, 8)
	if cartMk >= shufMk {
		t.Errorf("64-rank SUMMA: cart placement (%v) not cheaper than shuffle (%v)", cartMk, shufMk)
	}
}

// TestTracedSUMMAProfile: local GEMM charges no modeled compute, so
// under the virtual clock a traced 4x4 SUMMA profile is all
// communication, with one summa region per rank on the timeline.
func TestTracedSUMMAProfile(t *testing.T) {
	am, bm := summaMatrices(64)
	tr := trace.New(16, 1<<15)
	w := modeledWorld(4, 4, topology.MapCart)
	w.SetTracer(tr)
	summaOn(t, w, am, bm, 4, 4, 8)
	prof := tr.Profile(trace.Virtual)
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
