package gpaw

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/linalg"
)

// Silent-data-corruption defense for the distributed SCF loop. An ABFT
// (algorithm-based fault tolerance) checksum guards the subspace step's
// Cholesky factor (checkCholesky); the SDCGuard covers the grid fields
// and the solver's own invariants with cheap sanity monitors:
//
//   - a field-finiteness scan over the wave-functions, density, Hartree
//     and effective potential at the top of every iteration (NaN, Inf, or
//     a magnitude no physical field reaches flags corruption; the
//     Hartree potential is carried from step to step as the next solve's
//     initial guess, so a NaN planted in it would never leave the
//     conjugate gradients);
//   - a residual-growth monitor — Pulay mixing lets the density
//     residual wobble between iterations, but not grow by many orders of
//     magnitude unless state was corrupted;
//   - an eigenvalue finiteness check after each subspace solve.
//
// Every verdict is the same on every rank: the field scan and the
// factor check take the world verdict (Dist.verdict) of their local
// indicators, and the residual and eigenvalues are bit-identical
// everywhere (exact reductions), so all ranks return the same typed
// *ErrSDCDetected and the fault-tolerant driver rolls the whole world
// back together.

// ErrSDCDetected reports silent data corruption caught by the ABFT
// checksum or a sanity monitor: Op names the check, Index the first
// offending matrix row or the SCF iteration, Got/Want the mismatching
// values. Recovery rolls back to the last good checkpoint (errors.As).
type ErrSDCDetected struct {
	Op        string
	Index     int
	Got, Want float64
}

func (e *ErrSDCDetected) Error() string {
	return fmt.Sprintf("gpaw: silent data corruption detected by %s at index %d: %g != %g",
		e.Op, e.Index, e.Got, e.Want)
}

const (
	// sdcMagnitudeLimit flags field values no converging SCF state
	// reaches; a flipped exponent bit lands many orders past it.
	sdcMagnitudeLimit = 1e50
	// sdcMaxGrowth bounds the residual growth between iterations (genuine
	// residuals wobble by small factors) after sdcWarmup leading ones.
	sdcMaxGrowth, sdcWarmup = 1e6, 3
	// abftTol separates checksum rounding skew (~m·eps) from corruption:
	// a flipped high mantissa or exponent bit is many orders larger.
	abftTol = 1e-6
)

// testHookOverlap and testHookCholeskyFactor, when set by a test, run
// on every rank with the live overlap before the subspace step's
// factorization and with the live factor between the factorization and
// its verification — the windows a memory flip has to land in.
var (
	testHookOverlap        func(d *Dist, s linalg.Matrix)
	testHookCholeskyFactor func(d *Dist, l linalg.Matrix)
)

// checksumMismatch returns the first row at which two checksum columns
// differ by more than abftTol relative (a NaN differs), or -1.
func checksumMismatch(got, want linalg.Matrix) int {
	for i := range got {
		g, w := got[i][0], want[i][0]
		if d := g - w; math.IsNaN(d) || math.Abs(d) > abftTol*(1+math.Abs(g)+math.Abs(w)) {
			return i
		}
	}
	return -1
}

// choleskyChecksums returns, as m x 1 columns, both sides of the
// Huang–Abraham identity of a Cholesky factor l of s: L·(Lᵀe) = S·e.
func choleskyChecksums(s, l linalg.Matrix) (got, want linalg.Matrix) {
	e := linalg.NewMatrix(len(s), 1)
	for i := range e {
		e[i][0] = 1
	}
	return linalg.MatMul(l, linalg.MatMul(linalg.Transpose(l), e)), linalg.MatMul(s, e)
}

// checkCholesky is the subspace step's ABFT verification of the factor l
// of the overlap s, both replicated (l is nil when the factorization
// failed); it only reads, so no result bit depends on it. Rotted memory
// fails one rank's copy alone, so the local status (first offending row
// + 1, m + 1 for a failed factorization, 0 when clean) takes the world
// verdict and every rank returns the same typed error. A factorization
// that failed on every rank is no corruption: the check passes and the
// caller reports s as not positive definite.
func (d *Dist) checkCholesky(s, l linalg.Matrix) error {
	m, code := len(s), len(s)+1
	var got, want linalg.Matrix
	if l != nil {
		if testHookCholeskyFactor != nil {
			testHookCholeskyFactor(d, l)
		}
		got, want = choleskyChecksums(s, l)
		code = checksumMismatch(got, want) + 1
	}
	v := d.verdict(code)
	if v > m && d.verdict(m+1-code) == 0 {
		v = 0 // no rank factored s
	}
	switch {
	case v == 0:
		return nil
	case v <= m:
		return &ErrSDCDetected{Op: "cholesky.rowsum", Index: v - 1, Got: got[v-1][0], Want: want[v-1][0]}
	}
	return &ErrSDCDetected{Op: "cholesky.factor", Index: m, Got: 0, Want: 1}
}

// SDCGuard monitors one rank's view of a distributed SCF run for silent
// data corruption. Install via SCF.Guard (NewDistSCF arms one
// automatically when the Dist was built with DistConfig.ABFT). The
// zero value is ready to use; a guard belongs to a single run.
type SDCGuard struct {
	// Tamper, when set, runs before each iteration's field scan with
	// the live SCF state — the hook the corruption-injection harness
	// flips bits through. Production runs leave it nil.
	Tamper func(it int, psis []*grid.Grid, n, vh, veff *grid.Grid)
	// Detections counts corruption verdicts this guard has raised
	// (including ABFT detections it was told about via NoteABFT).
	Detections int

	prev float64 // last accepted residual (0 until first)
}

// detect raises a corruption verdict: counts it, drops a timeline mark
// and returns the typed error the rollback machinery matches on.
func (g *SDCGuard) detect(d *Dist, op string, it int, got, want float64) error {
	g.Detections++
	d.Cart.TraceRank().Mark("sdc.detect", -1, -1, int64(it))
	return &ErrSDCDetected{Op: op, Index: it, Got: got, Want: want}
}

// NoteABFT records a corruption verdict raised by the subspace step's
// ABFT check (the error already carries the detection site) on this
// guard's counter and timeline.
func (g *SDCGuard) NoteABFT(d *Dist, sdc *ErrSDCDetected) {
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

// checkFields scans the live SCF state for corruption. Its local
// indicator takes the world verdict, so every rank — including ones
// whose local state is clean — takes the rollback branch or none does.
func (g *SDCGuard) checkFields(d *Dist, it int, psis []*grid.Grid, n, vh, veff *grid.Grid) error {
	bad := 0
	if badField(n) || badField(vh) || badField(veff) || slices.ContainsFunc(psis, badField) {
		bad = 1
	}
	if d.verdict(bad) != 0 {
		return g.detect(d, "scf.fields", it, 1, 0)
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
// growth past sdcMaxGrowth x the last accepted residual after the
// sdcWarmup leading iterations is corruption of the mixed state.
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
	if it > sdcWarmup && g.prev > 0 && residual > sdcMaxGrowth*g.prev {
		return g.detect(d, "scf.residual", it, residual, g.prev)
	}
	g.prev = residual
	return nil
}
