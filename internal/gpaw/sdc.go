package gpaw

import (
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pblas"
)

// Silent-data-corruption defense for the distributed SCF loop. The ABFT
// checksums of internal/pblas guard the dense subspace kernels; this
// guard covers the grid fields and the solver's own invariants with
// cheap sanity monitors:
//
//   - a field-finiteness scan over the wave-functions, density and
//     effective potential at the top of every iteration (NaN, Inf, or a
//     magnitude no physical field reaches flags corruption);
//   - a residual-monotonicity monitor — mixing with a fixed fraction
//     cannot grow the density residual by many orders of magnitude
//     between iterations unless state was corrupted;
//   - an eigenvalue finiteness check after each subspace solve.
//
// Every verdict is reached identically on every rank: the field scan
// reduces a corruption indicator over the full communicator, and the
// residual and eigenvalues are already bit-identical everywhere (exact
// reductions), so all ranks return the same typed *pblas.ErrSDCDetected
// and the fault-tolerant driver can roll the whole world back to the
// last good checkpoint together.

// sdcMagnitudeLimit flags field values no converging SCF state reaches;
// a flipped exponent bit lands many orders of magnitude past it.
const sdcMagnitudeLimit = 1e50

// SDCGuard monitors one rank's view of a distributed SCF run for silent
// data corruption. Install via SCF.Guard (NewDistSCF arms one
// automatically when the Dist was built with DistConfig.ABFT). The
// zero value uses the defaults; a guard belongs to a single run.
type SDCGuard struct {
	// MaxGrowth bounds the tolerated residual growth factor between
	// consecutive iterations (<= 0: 1e6). Genuine SCF residuals wobble
	// by small factors; corrupted state jumps by many orders.
	MaxGrowth float64
	// Warmup is the number of leading iterations exempt from the
	// monotonicity monitor while the residual finds its scale
	// (<= 0: 3).
	Warmup int
	// Tamper, when set, runs before each iteration's field scan with
	// the live SCF state — the hook the corruption-injection harness
	// flips bits through. Production runs leave it nil.
	Tamper func(it int, psis []*grid.Grid, n, veff *grid.Grid)
	// Detections counts corruption verdicts this guard has raised
	// (including ABFT detections it was told about via NoteABFT).
	Detections int

	prev float64 // last accepted residual (0 until first)
}

func (g *SDCGuard) maxGrowth() float64 {
	if g.MaxGrowth > 0 {
		return g.MaxGrowth
	}
	return 1e6
}

func (g *SDCGuard) warmup() int {
	if g.Warmup > 0 {
		return g.Warmup
	}
	return 3
}

// detect raises a corruption verdict: counts it, drops a timeline mark
// and returns the typed error the rollback machinery matches on.
func (g *SDCGuard) detect(d *Dist, op string, it int, got, want float64) error {
	g.Detections++
	d.Cart.TraceRank().Mark("sdc.detect", -1, -1, int64(it))
	return &pblas.ErrSDCDetected{Op: op, Index: it, Got: got, Want: want}
}

// NoteABFT records a corruption verdict raised by the pblas ABFT layer
// (the error already carries the detection site) on this guard's
// counter and timeline.
func (g *SDCGuard) NoteABFT(d *Dist, sdc *pblas.ErrSDCDetected) {
	g.Detections++
	d.Cart.TraceRank().Mark("sdc.detect", -1, -1, int64(sdc.Index))
}

// badField reports whether any interior value of g is non-finite or
// unphysically large. Halo cells are excluded — they are communication
// scratch refreshed from interiors every exchange.
func badField(g *grid.Grid) bool {
	if g == nil {
		return false
	}
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			for k := 0; k < g.Nz; k++ {
				v := g.At(i, j, k)
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > sdcMagnitudeLimit {
					return true
				}
			}
		}
	}
	return false
}

// checkFields scans the live SCF state for corruption. The local
// verdict is reduced (max) over the full communicator so every rank —
// including ones whose local state is clean — takes the same branch.
func (g *SDCGuard) checkFields(d *Dist, it int, psis []*grid.Grid, n, veff *grid.Grid) error {
	bad := 0.0
	for _, p := range psis {
		if badField(p) {
			bad = 1
			break
		}
	}
	if bad == 0 && (badField(n) || badField(veff)) {
		bad = 1
	}
	var in, out [1]float64
	in[0] = bad
	// 0/1 indicator under max: identical on every rank by construction,
	// so the rollback branch is taken world-wide or not at all.
	d.World.Allreduce(mpi.OpMax, in[:], out[:])
	if out[0] != 0 {
		return g.detect(d, "scf.fields", it, out[0], 0)
	}
	return nil
}

// checkEig verifies the subspace eigenvalues are finite. They are
// bit-identical on every rank (exact reductions), so the local check
// branches identically everywhere without another reduction.
func (g *SDCGuard) checkEig(d *Dist, it int, eig []float64) error {
	for _, e := range eig {
		if math.IsNaN(e) || math.IsInf(e, 0) || math.Abs(e) > sdcMagnitudeLimit {
			return g.detect(d, "scf.eigenvalues", it, e, 0)
		}
	}
	return nil
}

// checkResidual runs the monotonicity monitor on the (globally
// identical) density residual. A NaN residual is corruption outright;
// growth past MaxGrowth x the last accepted residual after the warmup
// iterations is corruption of the mixed state.
func (g *SDCGuard) checkResidual(d *Dist, it int, residual float64) error {
	if math.IsNaN(residual) {
		return g.detect(d, "scf.residual", it, residual, g.prev)
	}
	if math.IsInf(residual, 0) {
		// The first iteration legitimately reports +Inf (no previous
		// density to diff against); afterwards it is corruption.
		if g.prev != 0 {
			return g.detect(d, "scf.residual", it, residual, g.prev)
		}
		return nil
	}
	if it > g.warmup() && g.prev > 0 && residual > g.maxGrowth()*g.prev {
		return g.detect(d, "scf.residual", it, residual, g.prev)
	}
	g.prev = residual
	return nil
}

// NewBitRotInjector returns a one-shot Tamper hook that flips bit 62 of
// the first interior element of the first held state at the given
// iteration. Bit 62 is the top exponent bit, so the value explodes far
// past sdcMagnitudeLimit and the same iteration's field scan catches it
// — before the tainted state can reach a checkpoint. Install on a
// single rank's guard; the hook survives rollback re-attempts without
// re-firing.
func NewBitRotInjector(iter int) func(it int, psis []*grid.Grid, n, veff *grid.Grid) {
	fired := false
	return func(it int, psis []*grid.Grid, n, veff *grid.Grid) {
		if fired || it != iter || len(psis) == 0 || psis[0] == nil {
			return
		}
		fired = true
		g := psis[0]
		v := g.At(0, 0, 0)
		g.Set(0, 0, 0, math.Float64frombits(math.Float64bits(v)^(1<<62)))
	}
}
