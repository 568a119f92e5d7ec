package gpaw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// flipBit returns v with one bit of its IEEE-754 representation flipped.
func flipBit(v float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ 1<<bit)
}

// NewBitRotInjector returns a one-shot Tamper hook that flips bit 62 of
// the first interior element of the first held state at the given
// iteration. Bit 62 is the top exponent bit, so the value explodes far
// past sdcMagnitudeLimit and the same iteration's field scan catches it
// — before the tainted state can reach a checkpoint. Install on a
// single rank's guard; the hook survives rollback re-attempts without
// re-firing.
func NewBitRotInjector(iter int) func(it int, psis []*grid.Grid, n, vh, veff *grid.Grid) {
	fired := false
	return func(it int, psis []*grid.Grid, n, vh, veff *grid.Grid) {
		if fired || it != iter || len(psis) == 0 || psis[0] == nil {
			return
		}
		fired = true
		g := psis[0]
		v := g.At(0, 0, 0)
		g.Set(0, 0, 0, math.Float64frombits(math.Float64bits(v)^(1<<62)))
	}
}

// TestLinalgChecksumIdentity: the identity the ABFT check rests on.
// Clean linalg.Cholesky factors satisfy L·(Lᵀe) = S·e to rounding, far
// below abftTol, at every subspace dimension m = 2…24 (no false
// positive); one flipped high mantissa bit of a diagonal entry, or a
// NaN anywhere, is a mismatch.
func TestLinalgChecksumIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for m := 2; m <= 24; m++ {
		b := linalg.NewMatrix(m, m)
		for i := range b {
			for j := range b[i] {
				b[i][j] = rng.NormFloat64()
			}
		}
		s := linalg.MatMul(b, linalg.Transpose(b))
		for i := range s {
			s[i][i] += float64(m)
		}
		l, err := linalg.Cholesky(s)
		if err != nil {
			t.Fatal(err)
		}
		got, want := choleskyChecksums(s, l)
		for i := range got {
			g, w := got[i][0], want[i][0]
			if rel := math.Abs(g-w) / (1 + math.Abs(g) + math.Abs(w)); rel > 1e-12 {
				t.Errorf("m=%d row %d: clean factor off by %g relative, want << %g", m, i, rel, abftTol)
			}
		}
		if i := checksumMismatch(got, want); i >= 0 {
			t.Errorf("m=%d: clean factor flagged at row %d", m, i)
		}
		clean := l[1][1]
		l[1][1] = flipBit(clean, 51)
		if got, want := choleskyChecksums(s, l); checksumMismatch(got, want) != 1 {
			t.Errorf("m=%d: bit 51 of L[1][1] flipped, first mismatch %d, want row 1", m, checksumMismatch(got, want))
		}
		l[1][1], l[m-1][0] = clean, math.NaN()
		if got, want := choleskyChecksums(s, l); checksumMismatch(got, want) < 0 {
			t.Errorf("m=%d: NaN in the factor passed the checksum", m)
		}
	}
}

// TestABFTVerdictWorldAgreed: a Cholesky factor corrupted on ONE domain
// rank between factorization and verification must be a detection on
// EVERY rank in the same SCF iteration — the verdict is reduced over the
// whole communicator, not the (one-rank, with Bands == 1) band
// communicator — so the FT driver rolls the world back together and the
// run finishes bit-identical to serial. With a rank-local verdict the
// clean ranks walk on into the next collective and the run ends in a
// TimeoutError instead.
func TestABFTVerdictWorldAgreed(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	want := chaosWant(t, sys)
	const ranks, victim, victimStep = 4, 1, 3
	// Per-rank slots: each rank goroutine touches only its own.
	var steps, lastIt [ranks]int
	var guards [ranks][]*SDCGuard
	testHookCholeskyFactor = func(d *Dist, l linalg.Matrix) {
		r := d.World.Rank()
		if steps[r]++; r == victim && steps[r] == victimStep {
			l[1][1] = flipBit(l[1][1], 51)
		}
	}
	defer func() { testHookCholeskyFactor = nil }()
	store := NewMemStore()
	if err := runRanks(ranks, mpi.ThreadSingle, func(c *mpi.Comm) {
		r := c.Rank()
		ft := FTConfig{Store: store, Every: 1, Keep: 4, Recover: true,
			Configure: func(s *SCF) {
				s.Tol = 1e-4
				guards[r] = append(guards[r], s.Guard)
				if len(guards[r]) == 1 {
					s.OnIteration = func(it int) { lastIt[r] = it }
				}
			}}
		cfg := DistConfig{Global: global, Procs: topology.Dims{2, 2, 1}, Halo: 2, BC: sys.BC,
			Approach: core.FlatOptimized, Threads: 1, Batch: 2, ABFT: true}
		res, err := RunSCFFT(c, cfg, sys, ft)
		if err != nil {
			panic(err)
		}
		if res.TotalEnergy != want.TotalEnergy || res.Iterations != want.Iterations ||
			res.Residual != want.Residual {
			t.Errorf("rank %d: recovered run (E,it,res)=(%.17g,%d,%.17g), serial (%.17g,%d,%.17g)",
				r, res.TotalEnergy, res.Iterations, res.Residual,
				want.TotalEnergy, want.Iterations, want.Residual)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The first SCF step takes two subspace steps (raw guess, then the
	// filtered block), so the third falls in iteration 2.
	for r := 0; r < ranks; r++ {
		if len(guards[r]) != 2 || guards[r][0].Detections != 1 || guards[r][1].Detections != 0 {
			t.Errorf("rank %d: want one detection in the first of two attempts, have %d attempts", r, len(guards[r]))
			continue
		}
		if lastIt[r] != 2 {
			t.Errorf("rank %d: detection in iteration %d, want 2 on every rank", r, lastIt[r])
		}
	}
}

// TestABFTFactorVerdictAgreed: an overlap made non-positive-definite on
// ONE rank before the subspace step's factorization is corruption, and
// every rank reports it as the same typed *ErrSDCDetected; an overlap
// non-positive-definite on every rank is the states' own linear
// dependence, which every rank reports as such. Either way no rank is
// left waiting in the agreement.
func TestABFTFactorVerdictAgreed(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	const ranks, victim = 4, 1
	defer func() { testHookOverlap = nil }()
	for _, everywhere := range []bool{false, true} {
		testHookOverlap = func(d *Dist, s linalg.Matrix) {
			if everywhere || d.World.Rank() == victim {
				s[0][0] = -1
			}
		}
		errs := agreedErrors(t, ranks, func(c *mpi.Comm) error {
			d, err := NewDist(c, DistConfig{Global: global, Procs: topology.Dims{2, 2, 1}, Halo: 2, BC: sys.BC,
				Approach: core.FlatOptimized, Threads: 1, Batch: 2, ABFT: true})
			if err != nil {
				return err
			}
			defer d.Close()
			s := NewDistSCF(d, sys)
			s.Tol = 1e-4
			_, err = s.Run()
			return err
		})
		for r, err := range errs {
			var sdc *ErrSDCDetected
			if isSDC := errors.As(err, &sdc); isSDC == everywhere || everywhere && !strings.Contains(fmt.Sprint(err), "not positive definite") {
				t.Errorf("S non-positive-definite on every rank %v: rank %d returned %v", everywhere, r, err)
			} else if isSDC && sdc.Op != "cholesky.factor" {
				t.Errorf("rank %d: detection by %s, want cholesky.factor", r, sdc.Op)
			}
		}
	}
}
