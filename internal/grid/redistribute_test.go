package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/topology"
)

// Redistribution fuzz, in the halo-exchange fuzz-vs-oracle style: fields
// are filled from a global-index oracle, moved decomp A -> B across an
// in-process MPI world, checked value-for-value against the oracle, then
// moved back B -> A and checked bitwise against the original.

// redistOracle is the deterministic global-index fill.
func redistOracle(i, j, k int) float64 {
	return math.Sin(float64(i*131+j*17+k)) * math.Pow(10, float64((i+2*j+3*k)%31)-15)
}

// fillLocal builds the local grid of coordinate c under dec, interior
// filled from the oracle at global indices.
func fillLocal(dec *Decomp, c topology.Coord, halo int) *Grid {
	g := NewDims(dec.LocalDims(c), halo)
	off := dec.Offset(c)
	g.FillFunc(func(i, j, k int) float64 { return redistOracle(off[0]+i, off[1]+j, off[2]+k) })
	return g
}

// checkLocal fails unless g's interior matches the oracle bitwise.
func checkLocal(t *testing.T, dec *Decomp, c topology.Coord, g *Grid, what string) {
	t.Helper()
	off := dec.Offset(c)
	ld := g.Dims()
	for i := 0; i < ld[0]; i++ {
		for j := 0; j < ld[1]; j++ {
			for k := 0; k < ld[2]; k++ {
				want := redistOracle(off[0]+i, off[1]+j, off[2]+k)
				if got := g.At(i, j, k); got != want {
					t.Errorf("%s: coord %v local (%d,%d,%d) = %g, want %g", what, c, i, j, k, got, want)
					return
				}
			}
		}
	}
}

// randProcs draws a process grid with product <= maxRanks that keeps
// every decomposed dimension at least halo thick.
func randProcs(rng *rand.Rand, global topology.Dims, halo, maxRanks int) topology.Dims {
	for {
		p := topology.Dims{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
		if p.Count() > maxRanks {
			continue
		}
		if _, err := NewDecomp(global, p, halo); err == nil {
			return p
		}
	}
}

// TestRedistributeFuzzRoundTrip: random globals, asymmetric process
// grids and halo widths; A -> B must match the oracle and B -> A must
// reproduce the original bits.
func TestRedistributeFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		global := topology.Dims{4 + rng.Intn(9), 4 + rng.Intn(9), 4 + rng.Intn(9)}
		haloA, haloB := rng.Intn(3), rng.Intn(3)
		procsA := randProcs(rng, global, haloA, 8)
		procsB := randProcs(rng, global, haloB, 8)
		decA := MustDecomp(global, procsA, haloA)
		decB := MustDecomp(global, procsB, haloB)
		ranks := decA.NumProcs()
		if n := decB.NumProcs(); n > ranks {
			ranks = n
		}
		err := mpi.Run(ranks, mpi.ThreadSingle, func(c *mpi.Comm) {
			var a, b, back *Grid
			if c.Rank() < decA.NumProcs() {
				a = fillLocal(decA, decA.Procs.Coord(c.Rank()), haloA)
				back = NewDims(a.Dims(), haloA)
			}
			if c.Rank() < decB.NumProcs() {
				b = NewDims(decB.LocalDims(decB.Procs.Coord(c.Rank())), haloB)
			}
			Redistribute(c, decA, decB, a, b, 100)
			if b != nil {
				checkLocal(t, decB, decB.Procs.Coord(c.Rank()), b, "A->B")
			}
			Redistribute(c, decB, decA, b, back, 101)
			if back != nil {
				if diff := back.MaxAbsDiff(a); diff != 0 {
					t.Errorf("trial %d %v->%v->%v: round trip deviates by %g", trial, procsA, procsB, procsA, diff)
				}
			}
		})
		if err != nil {
			t.Fatalf("trial %d (global %v, %v->%v): %v", trial, global, procsA, procsB, err)
		}
	}
}

// TestRedistPlanReuse runs one plan repeatedly with changing data —
// the multigrid usage pattern — and checks every pass stays exact.
func TestRedistPlanReuse(t *testing.T) {
	global := topology.Dims{12, 10, 8}
	decA := MustDecomp(global, topology.Dims{2, 2, 1}, 2)
	decB := MustDecomp(global, topology.Dims{1, 1, 2}, 2)
	err := mpi.Run(4, mpi.ThreadSingle, func(c *mpi.Comm) {
		down := NewRedistPlan(c.Rank(), decA, decB)
		up := NewRedistPlan(c.Rank(), decB, decA)
		a := fillLocal(decA, decA.Procs.Coord(c.Rank()), 2)
		back := NewDims(a.Dims(), 2)
		var b *Grid
		if c.Rank() < decB.NumProcs() {
			b = NewDims(decB.LocalDims(decB.Procs.Coord(c.Rank())), 0)
		}
		for pass := 0; pass < 3; pass++ {
			a.Scale(2) // change the payload between passes
			down.Run(c, a, b, 200)
			up.Run(c, b, back, 201)
			if diff := back.MaxAbsDiff(a); diff != 0 {
				t.Errorf("pass %d: plan round trip deviates by %g", pass, diff)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecompDoubled pins the transfer layout's defining property: every
// rank's doubled split is exactly twice its coarse split, so
// restriction and prolongation stay rank-local.
func TestDecompDoubled(t *testing.T) {
	coarse := MustDecomp(topology.Dims{10, 6, 5}, topology.Dims{4, 2, 3}, 1)
	fine := coarse.Doubled(0)
	if fine.Global != (topology.Dims{20, 12, 10}) {
		t.Fatalf("doubled global %v", fine.Global)
	}
	for r := 0; r < coarse.NumProcs(); r++ {
		c := coarse.Procs.Coord(r)
		co, cd := coarse.Offset(c), coarse.LocalDims(c)
		fo, fd := fine.Offset(c), fine.LocalDims(c)
		for d := 0; d < 3; d++ {
			if fo[d] != 2*co[d] || fd[d] != 2*cd[d] {
				t.Errorf("coord %v dim %d: fine (%d,%d), coarse (%d,%d)", c, d, fo[d], fd[d], co[d], cd[d])
			}
		}
	}
	// The balanced split of the doubled extent is NOT always aligned —
	// the reason the custom-split layout exists (20 over 4: starts
	// 0,5,10,15; doubled 10-over-4 starts: 0,6,12,16).
	bal := MustDecomp(topology.Dims{20, 12, 10}, topology.Dims{4, 2, 3}, 1)
	if bal.Offset(topology.Coord{1, 0, 0}) == fine.Offset(topology.Coord{1, 0, 0}) {
		t.Errorf("expected misaligned balanced split, got identical offsets")
	}
}

// Redistribute is the one-shot form: move srcGrid (decomposed by src)
// into dstGrid (decomposed by dst) over the communicator. Callers that
// redistribute repeatedly should hold a RedistPlan instead and reuse
// its buffers.
func Redistribute(c Comm, src, dst *Decomp, srcGrid, dstGrid *Grid, tag int) {
	NewRedistPlan(c.Rank(), src, dst).Run(c, srcGrid, dstGrid, tag)
}
