package gpaw

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// Expectation returns <psi|H|psi> / <psi|psi>.
func (h *Hamiltonian) Expectation(psi *grid.Grid) float64 {
	hp := grid.NewDims(psi.Dims(), psi.H)
	h.Apply(hp, psi)
	return h.D.Dot(psi, hp) / h.D.Dot(psi, psi)
}

// SolveCGReference is the plain conjugate-gradient formulation SolveCG
// replaces — no preconditioner, separate Apply, Scale, Axpy and Dot
// passes per iteration over an undecomposed grid, with local halo fills
// and no context. It is kept as the independent numerical reference for
// equivalence tests and as the baseline for the memory-traffic test.
func (ps *Poisson) SolveCGReference(phi, rhs *grid.Grid) (int, float64, error) {
	b := rhs.Clone()
	b.Scale(-1)
	if ps.D.BC == Periodic {
		removeMeanSerial(b)
	}
	norm0 := b.Norm2()
	if norm0 == 0 {
		phi.Fill(0)
		return 0, 0, nil
	}
	apply := func(dst, src *grid.Grid) {
		fillHalos(src, ps.D.BC)
		ps.Op.Apply(dst, src)
		dst.Scale(-1)
	}
	r := grid.NewDims(phi.Dims(), phi.H)
	ap := grid.NewDims(phi.Dims(), phi.H)
	// r = b - A phi
	apply(r, phi)
	r.Scale(-1)
	r.Axpy(1, b)
	if ps.D.BC == Periodic {
		removeMeanSerial(r)
	}
	p := r.Clone()
	rsold := r.Dot(r)
	for it := 1; it <= ps.MaxIter; it++ {
		apply(ap, p)
		alpha := rsold / p.Dot(ap)
		phi.Axpy(alpha, p)
		r.Axpy(-alpha, ap)
		if ps.D.BC == Periodic {
			removeMeanSerial(r)
		}
		rs := r.Dot(r)
		if math.Sqrt(rs)/norm0 < ps.Tol {
			if ps.D.BC == Periodic {
				removeMeanSerial(phi)
			}
			return it, math.Sqrt(rs) / norm0, nil
		}
		p.Scale(rs / rsold)
		p.Axpy(1, r)
		rsold = rs
	}
	return ps.MaxIter, math.Sqrt(rsold) / norm0, errNotConverged("CG", math.Sqrt(rsold)/norm0)
}

// removeMeanSerial subtracts the interior mean on the calling goroutine
// with a single straight-line accumulator, for the reference solver.
func removeMeanSerial(g *grid.Grid) {
	g.AddScalar(-g.Sum() / float64(g.Points()))
}

// fillHalos installs boundary values of an undecomposed grid for one
// application of the reference solver.
func fillHalos(g *grid.Grid, bc Boundary) {
	if bc == Periodic {
		g.FillHalosPeriodic()
	} else {
		g.FillHalosZero()
	}
}

func TestBoundaryString(t *testing.T) {
	if Periodic.String() != "periodic" || Dirichlet.String() != "dirichlet" {
		t.Fatal("Boundary.String broken")
	}
}

func TestPoissonPlaneWaveExact(t *testing.T) {
	// For rhs = eigenfunction of the discrete periodic Laplacian, the
	// solution is rhs/eigenvalue exactly (up to solver tolerance).
	n := 16
	h := 0.5
	ps := NewDistPoisson(SelfDist(topology.Dims{n, n, n}, Periodic), h)
	w := stencil.CentralWeights(2, 2, h)
	m := 2
	eig := 0.0
	for o := -2; o <= 2; o++ {
		eig += w[o+2] * math.Cos(2*math.Pi*float64(m*o)/float64(n))
	}
	rhs := grid.New(n, n, n, 2)
	rhs.FillFunc(func(i, j, k int) float64 {
		return math.Cos(2 * math.Pi * float64(m*i) / float64(n))
	})
	phi := grid.New(n, n, n, 2)
	iters, res, err := ps.SolveCG(phi, rhs)
	if err != nil {
		t.Fatalf("CG failed after %d iters (res %g): %v", iters, res, err)
	}
	maxErr := 0.0
	for i := 0; i < n; i++ {
		want := rhs.At(i, 3, 5) / eig
		if d := math.Abs(phi.At(i, 3, 5) - want); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1e-6 {
		t.Fatalf("plane-wave solution error %g", maxErr)
	}
}

func TestPoissonZeroRHS(t *testing.T) {
	ps := NewDistPoisson(SelfDist(topology.Dims{6, 6, 6}, Periodic), 0.3)
	phi := grid.New(6, 6, 6, 2)
	phi.Fill(3)
	if _, res, err := ps.SolveCG(phi, grid.New(6, 6, 6, 2)); err != nil || res != 0 {
		t.Fatalf("zero rhs: res=%g err=%v", res, err)
	}
	if phi.Norm2() != 0 {
		t.Fatal("zero rhs should produce zero potential")
	}
}

func TestHartreeGaussianMatchesAnalytic(t *testing.T) {
	// The potential of a Gaussian charge q, width sigma in free space is
	// v(r) = q erf(r/(sigma sqrt(2)))/r. With a Dirichlet box the match
	// holds up to the constant image-charge-like offset near the centre;
	// compare the DIFFERENCE of two radii to cancel the offset.
	dims := topology.Dims{28, 28, 28}
	h := 0.5
	sigma := 1.0
	q := 1.0
	nrho := GaussianDensity(dims, h, sigma, q)
	ps := NewDistPoisson(SelfDist(dims, Dirichlet), h)
	v, err := ps.HartreePotential(nrho)
	if err != nil {
		t.Fatal(err)
	}
	c := (dims[0] - 1) / 2 // integer centre offset: centre is at c+0.5 scaled... use exact float
	cx := float64(dims[0]-1) / 2
	analytic := func(r float64) float64 {
		return q * math.Erf(r/(sigma*math.Sqrt2)) / r
	}
	// Two sample points along the axis.
	r1 := (float64(c+4) - cx) * h
	r2 := (float64(c+8) - cx) * h
	got := v.At(c+4, c, c) - v.At(c+8, c, c)
	want := analytic(r1) - analytic(r2)
	if math.Abs(got-want) > 0.03*math.Abs(want) {
		t.Fatalf("Hartree potential difference = %g, analytic %g", got, want)
	}
}

func TestKineticOperatorSign(t *testing.T) {
	// -(1/2)∇² applied to sin gives +(1/2)k² sin: positive energy.
	n := 16
	h := 2 * math.Pi / float64(n)
	kin := Kinetic(2, h)
	psi := grid.New(n, n, n, 2)
	psi.FillFunc(func(i, j, k int) float64 { return math.Sin(h * float64(i)) })
	out := grid.New(n, n, n, 2)
	psi.FillHalosPeriodic()
	kin.Apply(out, psi)
	// Expectation must be close to k²/2 = 0.5.
	e := psi.Dot(out) / psi.Dot(psi)
	if math.Abs(e-0.5) > 0.01 {
		t.Fatalf("kinetic expectation %g, want ~0.5", e)
	}
}

func TestHamiltonianExpectationAndBound(t *testing.T) {
	dims := topology.Dims{12, 12, 12}
	h := 0.4
	v := HarmonicPotential(dims, h, 1)
	d := SelfDist(dims, Dirichlet)
	ham := NewDistHamiltonian(d, h, v)
	psi := grid.NewDims(dims, 2)
	psi.FillFunc(func(i, j, k int) float64 { return 1 })
	e := ham.Expectation(psi)
	bound := ham.SpectralBound()
	if e <= 0 {
		t.Fatalf("expectation %g should be positive", e)
	}
	if e > bound {
		t.Fatalf("expectation %g exceeds spectral bound %g", e, bound)
	}
	// Without potential the expectation is pure kinetic.
	free := NewDistHamiltonian(d, h, nil)
	if free.Expectation(psi) >= e {
		t.Fatal("adding a positive potential must raise the energy")
	}
}

// TestOrthonormalize: the subspace step takes any linearly independent
// states — the filter's output is neither orthogonal nor normalized —
// and leaves orthonormal Ritz vectors whose Rayleigh quotients are the
// returned Ritz values.
func TestOrthonormalize(t *testing.T) {
	d := SelfDist(topology.Dims{10, 10, 10}, Dirichlet)
	ham := NewDistHamiltonian(d, 0.5, HarmonicPotential(topology.Dims{10, 10, 10}, 0.5, 1))
	psis := d.InitGuessBand(4, [3]int{10, 10, 10})
	eig, err := ham.RayleighRitz(len(psis), psis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range psis {
		for j := range psis {
			got := psis[i].Dot(psis[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(got-want) > 1e-10 {
				t.Fatalf("<%d|%d> = %g, want %g", i, j, got, want)
			}
		}
		if e := ham.Expectation(psis[i]); math.Abs(e-eig[i]) > 1e-10 {
			t.Fatalf("state %d: <H> = %g, Ritz value %g", i, e, eig[i])
		}
		if i > 0 && eig[i] < eig[i-1] {
			t.Fatalf("Ritz values not ascending: %v", eig)
		}
	}
}

func TestOrthonormalizeRejectsDependentStates(t *testing.T) {
	a := grid.New(6, 6, 6, 2)
	a.Fill(1)
	b := a.Clone()
	if _, err := NewDistHamiltonian(SelfDist(topology.Dims{6, 6, 6}, Dirichlet), 0.5, nil).RayleighRitz(2, []*grid.Grid{a, b}); err == nil {
		t.Fatal("linearly dependent states accepted")
	}
}

func TestParticleInBoxEigenvalues(t *testing.T) {
	// V=0 in a Dirichlet box: with the zero halo just outside the grid,
	// the effective box length is L = (n+1)h and the discrete ground
	// state follows the stencil's dispersion; compare against the
	// analytic continuum value with a few-percent tolerance.
	n := 14
	h := 0.5
	L := float64(n+1) * h
	d := SelfDist(topology.Dims{n, n, n}, Dirichlet)
	es := NewEigenSolver(NewDistHamiltonian(d, h, nil))
	es.MaxIter = 10 // the damped step this solver replaced took 799 iterations
	psis := d.InitGuessBand(2+guardStates, [3]int{n, n, n})
	eig, err := es.Solve(len(psis), psis)
	if err != nil {
		t.Fatal(err)
	}
	e0 := 3 * math.Pi * math.Pi / (2 * L * L) // (1,1,1) mode
	if math.Abs(eig[0]-e0) > 0.05*e0 {
		t.Fatalf("box ground state %g, analytic %g", eig[0], e0)
	}
	// First excited state: (2,1,1) degenerate triple; we only check it
	// exceeds the ground state by roughly the analytic gap.
	gap := 3 * math.Pi * math.Pi / (2 * L * L)
	if eig[1]-eig[0] < 0.5*gap || eig[1]-eig[0] > 1.5*gap {
		t.Fatalf("box gap %g, analytic %g", eig[1]-eig[0], gap)
	}
}

// harmonicLevels solves the 20^3 harmonic oscillator for four states and
// the guard to the given tolerance.
func harmonicLevels(t *testing.T, tol float64) []float64 {
	t.Helper()
	dims := topology.Dims{20, 20, 20}
	h := 0.55
	d := SelfDist(dims, Dirichlet)
	es := NewEigenSolver(NewDistHamiltonian(d, h, HarmonicPotential(dims, h, 1)))
	es.Tol = tol
	psis := d.InitGuessBand(4+guardStates, [3]int{dims[0], dims[1], dims[2]})
	eig, err := es.Solve(len(psis), psis)
	if err != nil {
		t.Fatal(err)
	}
	return eig[:4]
}

func TestHarmonicOscillatorLevels(t *testing.T) {
	// 3-D harmonic oscillator: E = ω(n + 3/2). Grid must contain a few
	// sigma; ω=1, sigma=1.
	eig := harmonicLevels(t, 1e-8)
	if math.Abs(eig[0]-1.5) > 0.05 {
		t.Fatalf("ground state %g, want 1.5", eig[0])
	}
	for i := 1; i < 4; i++ {
		if math.Abs(eig[i]-2.5) > 0.12 {
			t.Fatalf("excited state %d = %g, want 2.5", i, eig[i])
		}
	}
	// The eigenvalue-change criterion must not stop short of the answer
	// (the damped step did: 3.2e-7 off at this Tol, the p-triplet split):
	// the triplet is degenerate and every level agrees with a run
	// converged a thousand times tighter.
	tight := harmonicLevels(t, 1e-11)
	for i := range eig {
		if d := math.Abs(eig[i] - tight[i]); d > 1e-7 {
			t.Errorf("level %d at Tol 1e-8 is %g from its Tol 1e-11 value", i, d)
		}
	}
	if d := eig[3] - eig[1]; d > 1e-7 {
		t.Errorf("p-triplet split by %g", d)
	}
}

// TestEigenSolverSingleState: a block of one has no guard to bound the
// filter with — the damped interval's edge sits on the state itself, so
// the filter's gain over the rest of the spectrum shrinks as the state
// converges — and still reaches the level a guarded solve finds, slowly.
func TestEigenSolverSingleState(t *testing.T) {
	dims := [3]int{10, 10, 10}
	d := SelfDist(dims, Dirichlet)
	ham := NewDistHamiltonian(d, 0.5, nil)
	guarded := NewEigenSolver(ham)
	want, err := guarded.Solve(1+guardStates, d.InitGuessBand(1+guardStates, dims))
	if err != nil {
		t.Fatal(err)
	}
	es := NewEigenSolver(ham)
	es.Tol, es.MaxIter = 1e-7, 2000
	eig, err := es.Solve(1, d.InitGuessBand(1, dims))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(eig[0] - want[0]); d > 1e-4 {
		t.Fatalf("unguarded ground state %.9f is %g from the guarded solve's %.9f", eig[0], d, want[0])
	}
}

func TestEigenSolverEmptyInput(t *testing.T) {
	es := NewEigenSolver(NewDistHamiltonian(SelfDist(topology.Dims{6, 6, 6}, Dirichlet), 0.5, nil))
	if _, err := es.Solve(0, nil); err == nil {
		t.Fatal("empty state list accepted")
	}
}

func TestSCFHarmonicTrapConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("SCF loop in short mode")
	}
	dims := topology.Dims{16, 16, 16}
	h := 0.6
	sys := System{
		Dims:      dims,
		Spacing:   h,
		BC:        Dirichlet,
		Vext:      HarmonicPotential(dims, h, 1),
		Electrons: 2,
	}
	scf := NewDistSCF(SelfDist(dims, Dirichlet), sys)
	scf.Tol = 1e-4
	res, err := scf.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Two interacting electrons in the trap: the occupied level lies
	// above the bare 1.5 Hartree level because of Hartree repulsion
	// (minus some exchange).
	if res.Eigenvalues[0] <= 1.5 {
		t.Fatalf("interacting level %g should exceed bare 1.5", res.Eigenvalues[0])
	}
	if res.Eigenvalues[0] > 3.0 {
		t.Fatalf("interacting level %g unreasonably high", res.Eigenvalues[0])
	}
	// The density must integrate to the electron count.
	dV := h * h * h
	if total := res.Density.Sum() * dV; math.Abs(total-2) > 1e-6 {
		t.Fatalf("density integrates to %g, want 2", total)
	}
	if res.Iterations < 2 {
		t.Fatal("suspiciously fast SCF convergence")
	}
}

// TestSCFEnergyNearFixedPoint: one filter pass per step must not leave
// the loop short of self-consistency — on the repository benchmark's
// input (24^3, h 0.6, the trap capped at 8 Ha, 8 electrons; rebuilt here,
// benchmark/ is a module of its own) the energy at the benchmark's Tol
// 1e-4 lies within 2e-4 Ha of the same run at Tol 1e-8, for both
// boundary conditions, and inside the benchmark's golden window
// (benchmark/golden.json ± 5e-4) with 1e-4 to spare. The goldens were
// recorded from the damped-step solver and sit 3.8e-4 / 3.5e-4 below
// the fixed point, so the upper edge is the near one: Pulay mixing
// stops 3.95e-4 (Dirichlet) above the golden.
//
// The same runs pin the Hartree solve's cost: each step's conjugate
// gradients begin at the previous step's potential and stop at
// hartreeTolFactor times the step's density residual, so the whole run
// takes at most 40 iterations per boundary condition — 26 over 11
// (Dirichlet) and 13 (periodic) Pulay steps, 1–4 per step, where solving
// every step to a fixed 1e-8 took 88 and a cold start from zero takes
// about 10 per step. Pulay's steps do not move the density
// monotonically, so neither do the per-step counts; only the total is
// bounded.
func TestSCFEnergyNearFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("four 24^3 SCF runs in short mode")
	}
	const goldenDirichlet, goldenPeriodic = 41.415515929038115, 36.652868621180936
	dims := topology.Dims{24, 24, 24}
	vext := grid.NewDims(dims, 2)
	vext.FillFunc(func(i, j, k int) float64 {
		x, y, z := (float64(i)-11.5)*0.6, (float64(j)-11.5)*0.6, (float64(k)-11.5)*0.6
		return math.Min(8, 0.5*(x*x+y*y+z*z))
	})
	for _, c := range []struct {
		bc      Boundary
		golden  float64
		maxIter int
	}{{Dirichlet, goldenDirichlet, 40}, {Periodic, goldenPeriodic, 40}} {
		// perStep[i] is the conjugate-gradient count of SCF step i+1.
		energy := func(tol float64) (e float64, perStep []int) {
			d := SelfDist(dims, c.bc)
			scf := NewDistSCF(d, System{Dims: dims, Spacing: 0.6, BC: c.bc, Vext: vext, Electrons: 8})
			scf.Tol, scf.MaxIter = tol, 100
			before := 0
			scf.OnIteration = func(it int) {
				if it > 1 {
					perStep = append(perStep, d.cgIters-before)
				}
				before = d.cgIters
			}
			res, err := scf.Run()
			if err != nil {
				t.Fatalf("%v Tol %g: %v", c.bc, tol, err)
			}
			return res.TotalEnergy, append(perStep, d.cgIters-before)
		}
		loose, perStep := energy(1e-4)
		tight, _ := energy(1e-8)
		total := 0
		for _, n := range perStep {
			total += n
		}
		t.Logf("%v: energy %.9f, %d Hartree iterations over %d SCF steps: %v", c.bc, loose, total, len(perStep), perStep)
		if total > c.maxIter {
			t.Errorf("%v: %d Hartree iterations over the SCF, want <= %d", c.bc, total, c.maxIter)
		}
		if d := math.Abs(loose - tight); d > 2e-4 {
			t.Errorf("%v: energy %.9f at Tol 1e-4 is %g Ha from the Tol 1e-8 value %.9f", c.bc, loose, d, tight)
		}
		if d := math.Abs(loose - c.golden); d > 4e-4 {
			t.Errorf("%v: energy %.9f at Tol 1e-4 is %g Ha from the benchmark golden %.9f (window 5e-4)", c.bc, loose, d, c.golden)
		}
	}
}

// TestPulayWeights: on a positive definite Gram matrix the weights are
// the constrained least-squares solution; on a singular one the mixer
// drops its oldest pairs until the rest factor, shifting the Gram
// matrix with them (G is replicated, so every rank drops the same).
func TestPulayWeights(t *testing.T) {
	near := func(got []float64, want ...float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-15 {
				return false
			}
		}
		return true
	}
	// R0 = (1, 0), R1 = (0, 2): ‖α0 R0 + α1 R1‖ under α0 + α1 = 1 is
	// least at (4/5, 1/5).
	p := pulayMixer{hist: 2, gram: [pulayHistory][pulayHistory]float64{{1, 0}, {0, 4}}}
	if a := p.weights(); !near(a, 0.8, 0.2) || p.hist != 2 {
		t.Errorf("weights %v over %d pairs, want [0.8 0.2] over 2", a, p.hist)
	}
	// R0 = R1 = (1, 0), R2 = (0, 1): the oldest pair goes, the other two
	// weigh equally.
	p = pulayMixer{hist: 3, gram: [pulayHistory][pulayHistory]float64{{1, 1, 0}, {1, 1, 0}, {0, 0, 1}}}
	if a := p.weights(); !near(a, 0.5, 0.5) || p.hist != 2 || p.gram[0][0] != 1 || p.gram[0][1] != 0 || p.gram[1][1] != 1 {
		t.Errorf("weights %v over %d pairs, Gram %v: want [0.5 0.5] over the newest 2", a, p.hist, p.gram)
	}
	// Three equal residuals: only the newest is left, a linear step.
	p = pulayMixer{hist: 3, gram: [pulayHistory][pulayHistory]float64{{2, 2, 2}, {2, 2, 2}, {2, 2, 2}}}
	if a := p.weights(); !near(a, 1) || p.hist != 1 {
		t.Errorf("weights %v over %d pairs, want [1] over 1", a, p.hist)
	}
}

func TestSCFValidation(t *testing.T) {
	dims := topology.Dims{6, 6, 6}
	d := SelfDist(dims, Dirichlet)
	scf := NewDistSCF(d, System{Dims: dims, Spacing: 0.5, BC: Dirichlet, Vext: grid.NewDims(dims, 2), Electrons: 0})
	if _, err := scf.Run(); err == nil {
		t.Fatal("0 electrons accepted")
	}
	scf = NewDistSCF(d, System{Dims: dims, Spacing: 0.5, BC: Dirichlet, Electrons: 2})
	if _, err := scf.Run(); err == nil {
		t.Fatal("missing potential accepted")
	}
}

func TestGaussianDensityNormalization(t *testing.T) {
	dims := topology.Dims{24, 24, 24}
	h := 0.5
	g := GaussianDensity(dims, h, 1, 3.5)
	total := g.Sum() * h * h * h
	if math.Abs(total-3.5) > 0.01 {
		t.Fatalf("Gaussian integrates to %g, want 3.5", total)
	}
}

func TestHarmonicPotentialCentredMinimum(t *testing.T) {
	dims := topology.Dims{11, 11, 11}
	v := HarmonicPotential(dims, 0.3, 2)
	if v.At(5, 5, 5) != 0 {
		t.Fatalf("potential minimum %g not at centre", v.At(5, 5, 5))
	}
	if v.At(0, 0, 0) <= v.At(5, 5, 5) {
		t.Fatal("potential should rise away from the centre")
	}
}
