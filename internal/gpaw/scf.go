package gpaw

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/detsum"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/topology"
)

// System describes a closed-shell model system for the self-consistent
// field loop: N electrons in an external potential on a real-space grid.
type System struct {
	Dims      topology.Dims
	Spacing   float64
	BC        Boundary
	Vext      *grid.Grid // external potential
	Electrons int        // total electrons; states = ceil(electrons/2)
}

// SCFResult reports a converged self-consistent calculation.
type SCFResult struct {
	Eigenvalues []float64 // occupied Kohn–Sham eigenvalues (Hartree)
	TotalEnergy float64   // band-structure energy Σ f_i ε_i (Hartree)
	Density     *grid.Grid
	VHartree    *grid.Grid
	Iterations  int
	Residual    float64 // final density change (L2)
}

// bandEnergy folds the occupied eigenvalue sum Σ f_i ε_i in state
// order — the total energy the differential test harness asserts
// bit-identical across rank counts.
func bandEnergy(eig []float64, electrons int) float64 {
	remaining := float64(electrons)
	total := 0.0
	for _, e := range eig {
		occ := math.Min(2, remaining)
		//lint:ignore detsumcheck occupation bookkeeping folds in fixed state order from the replicated eigenvalue list — deterministic on every rank
		remaining -= occ
		//lint:ignore detsumcheck band-energy fold in fixed state order over the replicated eigenvalues is the sequence the golden energies were produced with
		total += float64(occ * e)
	}
	return total
}

// xAlpha is the Slater exchange potential v_x = -(3 n / π)^(1/3).
func xAlpha(n float64) float64 {
	if n <= 0 {
		return 0
	}
	return -math.Cbrt(3 * n / math.Pi)
}

// SCF runs a simple self-consistent loop with Hartree and local-density
// exchange (Slater Xα): one Chebyshev-filtered subspace pass on H[n]
// (eigen.go) — the states follow the potential as it converges instead
// of being re-solved inside every step — then rebuild n, Pulay-mix it
// with the last pulayHistory steps' densities, solve for its Hartree
// potential to a tolerance the mix's density residual sets
// (hartreeTol), repeat.
// Besides the occupied states it carries guardStates unoccupied ones,
// which bound the filter. It is deliberately small — enough to generate
// the "thousands of wave-functions, one density" workload shape the
// paper describes — not a production DFT code. Sys describes the global system (Vext is
// the global external potential, replicated on every rank); the
// result's grids are this rank's local sub-domains while eigenvalues,
// energies, iteration counts and residuals are identical on every rank
// and bit-identical for every layout.
type SCF struct {
	// D is the distributed context. It is nil on a NewSCF driver: Run
	// then builds a one-rank context covering Sys.Dims.
	D       *Dist
	Sys     System
	Tol     float64 // density residual target
	MaxIter int
	// Ckpt, when set, snapshots the SCF state (density, Hartree
	// potential, this band group's states and all Ritz values, guard's
	// included, iteration counter) every Ckpt.Every iterations.
	Ckpt *Checkpointer
	// OnIteration, when set, is called on every rank at the top of each
	// SCF iteration, before any communication of that iteration. The
	// fault-injection harness uses it to kill a rank at a chosen
	// iteration; production callers may use it for progress reporting.
	OnIteration func(it int)
	// Guard, when set, runs the silent-data-corruption monitors each
	// iteration (see sdc.go); NewDistSCF arms one when d.ABFT is set.
	Guard *SDCGuard
}

// NewSCF builds an undecomposed SCF driver with conservative defaults.
func NewSCF(sys System) *SCF {
	return &SCF{Sys: sys, Tol: 1e-6, MaxIter: 60}
}

// NewDistSCF builds the driver on d with the same defaults; every rank
// of d calls Run.
func NewDistSCF(d *Dist, sys System) *SCF {
	s := NewSCF(sys)
	s.D = d
	if d.ABFT {
		s.Guard = &SDCGuard{}
	}
	return s
}

// occupied returns the number of occupied orbitals; states the number
// the loop carries, the eigensolver's guard included.
func (s *SCF) occupied() int { return (s.Sys.Electrons + 1) / 2 }
func (s *SCF) states() int   { return s.occupied() + guardStates }

// buildDensity assembles n(r) = Σ_i f_i |ψ_i|² normalized to the
// electron count in the Dist's density scratch, one fused
// accumulate-the-square sweep per occupied state. The band slices are
// gathered (gatherBands: one broadcast per band group) and every rank
// accumulates occ·|ψ|² over the gathered set in ascending global order,
// then the normalization sum reduces exactly over the domain. The
// returned density is replicated across band groups and valid until
// the next call.
func (s *SCF) buildDensity(m int, psis []*grid.Grid) *grid.Grid {
	d := s.D
	defer d.Cart.TraceRank().Region("scf.density").End()
	n := d.scratchGrid(&d.fields.density)
	n.Fill(0)
	dV := s.Sys.Spacing * s.Sys.Spacing * s.Sys.Spacing
	remaining := float64(s.Sys.Electrons)
	for _, src := range d.gatherBands(m, psis) {
		occ := math.Min(2, remaining)
		//lint:ignore detsumcheck occupation bookkeeping folds in fixed state order over the gathered states — deterministic on every rank
		remaining -= occ
		if occ > 0 {
			n.AccumSquared(occ, src)
		}
	}
	// Wave-functions are dot-product normalized; scale so that
	// ∫n dV = electrons.
	total := d.Sum(n) * dV
	if total > 0 {
		n.Scale(float64(s.Sys.Electrons) / total)
	}
	return n
}

// Run executes the self-consistent loop (every reduced scalar is
// identical on every rank, so all ranks take the same branches).
func (s *SCF) Run() (*SCFResult, error) {
	return s.run(nil)
}

// Resume continues the self-consistent loop from a restored checkpoint
// (RestoreSCF), starting at iteration rs.Iteration+1. Because every
// reduction in the solver stack is exact and the restored state is a
// bit-exact re-tiling of the checkpointed one, the resumed run — on the
// same process grid, a shrunken one, or a grown one — produces results
// bit-identical to an undisturbed run, including the reported iteration
// count.
func (s *SCF) Resume(rs *SCFRestart) (*SCFResult, error) {
	if rs == nil {
		return nil, fmt.Errorf("gpaw: nil SCF restart state")
	}
	if rs.States != s.states() {
		return nil, fmt.Errorf("gpaw: checkpoint has %d states, system wants %d (guard included)", rs.States, s.states())
	}
	if rs.spacing != s.Sys.Spacing {
		return nil, fmt.Errorf("gpaw: checkpoint is at spacing %g, system at %g", rs.spacing, s.Sys.Spacing)
	}
	if rs.Iteration >= s.MaxIter {
		return nil, fmt.Errorf("gpaw: checkpoint at iteration %d leaves no iterations below MaxIter %d", rs.Iteration, s.MaxIter)
	}
	return s.run(rs)
}

func (s *SCF) run(rs *SCFRestart) (*SCFResult, error) {
	if s.Sys.Electrons < 1 {
		return nil, fmt.Errorf("gpaw: %d electrons", s.Sys.Electrons)
	}
	if s.Sys.Vext == nil {
		return nil, fmt.Errorf("gpaw: missing external potential")
	}
	if s.D == nil {
		b := *s
		b.D = selfDist(s.Sys.Dims, 2, s.Sys.BC)
		s = &b
	}
	if s.Sys.BC != s.D.BC {
		return nil, fmt.Errorf("gpaw: system boundary %v != distributed context boundary %v", s.Sys.BC, s.D.BC)
	}
	if s.Sys.Dims != s.D.Decomp.Global {
		return nil, fmt.Errorf("gpaw: system dims %v != decomposed global %v", s.Sys.Dims, s.D.Decomp.Global)
	}
	d := s.D
	m := s.states()
	poisson := NewDistPoisson(d, s.Sys.Spacing)
	vextLocal := d.ScatterReplicated(s.Sys.Vext)

	// The Hartree potential is state of the loop, not scratch of a step:
	// every solve starts from the previous step's (zero on a fresh run).
	var psis []*grid.Grid
	var n, vh *grid.Grid
	var eig []float64
	var mixer pulayMixer
	veff := vextLocal.Clone()
	// H reads veff, which updateVeff rewrites in place each step: one
	// Hamiltonian serves the whole loop.
	ham := NewDistHamiltonian(d, s.Sys.Spacing, veff)
	start := 0
	if rs != nil {
		psis, n, vh, eig, mixer = rs.Psis, rs.N, rs.VHartree, rs.Eig, rs.mix
		start = rs.Iteration
		updateVeff(veff, vextLocal, vh, n)
	} else {
		psis = d.InitGuessBand(m, [3]int{s.Sys.Dims[0], s.Sys.Dims[1], s.Sys.Dims[2]})
		vh = d.NewLocalGrid()
	}
	for it := start + 1; it <= s.MaxIter; it++ {
		// One traced region per SCF iteration; the closure gives the span
		// a single exit covering the loop body's early returns.
		res, err := func() (*SCFResult, error) {
			defer d.Cart.TraceRank().Region("scf.iteration").End()
			if s.OnIteration != nil {
				s.OnIteration(it)
			}
			if s.Guard != nil {
				if s.Guard.Tamper != nil {
					s.Guard.Tamper(it, psis, n, vh, veff)
				}
				if err := s.Guard.checkFields(d, it, psis, n, vh, veff); err != nil {
					return nil, fmt.Errorf("gpaw: scf iteration %d: %w", it, err)
				}
			}
			// One pass per step, the filter bounded by the previous step's
			// Ritz values (nil on a fresh run's first step).
			var err error
			eig, err = ham.filterPass(m, psis, eig)
			if err != nil {
				var sdc *ErrSDCDetected
				if errors.As(err, &sdc) && s.Guard != nil {
					s.Guard.NoteABFT(d, sdc)
				}
				return nil, fmt.Errorf("gpaw: scf iteration %d: %w", it, err)
			}
			if s.Guard != nil {
				if err := s.Guard.checkEig(d, it, eig); err != nil {
					return nil, fmt.Errorf("gpaw: scf iteration %d: %w", it, err)
				}
			}
			newN := s.buildDensity(m, psis)
			var residual float64
			if n == nil {
				n = newN.Clone()
				residual = math.Inf(1)
			} else {
				residual = mixer.mix(d, n, newN)
			}
			if s.Guard != nil {
				if err := s.Guard.checkResidual(d, it, residual); err != nil {
					return nil, fmt.Errorf("gpaw: scf iteration %d: %w", it, err)
				}
			}
			poisson.Tol = hartreeTol(residual)
			if err := s.hartree(poisson, vh, n); err != nil {
				return nil, fmt.Errorf("gpaw: scf iteration %d hartree: %w", it, err)
			}
			updateVeff(veff, vextLocal, vh, n)
			// Snapshot after the mix and potential update: (psis, n, vh,
			// eig, mixer, it) is the complete SCF state — the next Hartree
			// solve starts from vh, the next filter needs eig, the next mix
			// the ring, and veff is a pointwise function of (vext, vh, n).
			// Saved before the convergence branch, which is taken
			// identically on every rank.
			if s.Ckpt.due(it) {
				if err := s.Ckpt.saveSCF(s, it, m, eig, psis, n, vh, &mixer); err != nil {
					return nil, fmt.Errorf("gpaw: scf iteration %d checkpoint: %w", it, err)
				}
			}
			if residual >= s.Tol && it < s.MaxIter {
				return nil, nil
			}
			occ := slices.Clone(eig[:s.occupied()]) // eig is the Dist's subspace storage
			res := &SCFResult{Eigenvalues: occ, TotalEnergy: bandEnergy(occ, s.Sys.Electrons),
				Density: n, VHartree: vh, Iterations: it, Residual: residual}
			if residual >= s.Tol {
				return res, fmt.Errorf("gpaw: SCF did not reach %g (residual %g)", s.Tol, residual)
			}
			return res, nil
		}()
		if res != nil || err != nil {
			return res, err
		}
	}
	return nil, fmt.Errorf("gpaw: unreachable")
}

// The Hartree solve of an SCF step runs to a relative residual of
// hartreeTolFactor times the step's density residual, clamped to
// [hartreeTolFloor, hartreeTolCeil]: v_H need be no more exact than the
// density it came from, which the loop has converged only that far.
const (
	hartreeTolFactor = 0.01
	hartreeTolFloor  = 1e-8
	hartreeTolCeil   = 1e-2
)

// hartreeTol returns the Hartree solve's tolerance after a mix with the
// given density residual (+Inf on a fresh run's first step, which takes
// the ceiling). The residual is a replicated exact reduction, so every
// rank and layout solves to the same tolerance.
func hartreeTol(residual float64) float64 {
	tol := hartreeTolFactor * residual
	if !(tol > hartreeTolFloor) { // a NaN residual takes the floor too
		return hartreeTolFloor
	}
	return math.Min(tol, hartreeTolCeil)
}

// testHookHartree, when set by a test, runs on band group 0's ranks
// just before each SCF Hartree solve, with the solver about to run it.
var testHookHartree func(d *Dist, ps *Poisson)

// Status words of the v_H band broadcast.
const (
	hartreeSolved       = 0
	hartreeNotConverged = 1 // the relative residual follows
	hartreeFailed       = 2
)

// hartree solves for the Hartree potential of n into vh, warm-started
// from the potential vh holds. The density is bit-identical in every
// band group, so only band group 0 (rank 0 of the band communicator)
// solves; one broadcast over the band communicator hands the other
// groups v_H's interior behind a status word and the relative residual,
// so every rank returns the same error and none waits on a solve that
// failed. The other groups never build the solve's multigrid hierarchy
// or its work grids. With one band group it is the solve alone.
//
//gpaw:hotpath
func (s *SCF) hartree(ps *Poisson, vh, n *grid.Grid) error {
	d := s.D
	var err error
	if d.Band == 0 {
		if testHookHartree != nil {
			testHookHartree(d, ps)
		}
		if err = ps.hartreeInto(vh, n); d.Bands == 1 {
			return err
		}
	}
	buf := grow(&d.fields.vhFlat, 2+vh.Points())
	if d.Band == 0 {
		buf[0], buf[1] = hartreeSolved, 0
		if err != nil {
			buf[0] = hartreeFailed
			var nc *notConvergedError
			if errors.As(err, &nc) {
				buf[0], buf[1] = hartreeNotConverged, nc.rel
			}
		} else {
			vh.CopyInterior(buf[2:])
		}
	}
	d.BandComm.Bcast(0, buf)
	if d.Band == 0 {
		return err
	}
	switch buf[0] {
	case hartreeNotConverged:
		return errNotConverged("CG", buf[1])
	case hartreeFailed:
		return errors.New("gpaw: band group 0's Hartree solve failed")
	}
	vh.SetInterior(buf[2:])
	return nil
}

// pulayHistory is K, the number of (input density, residual) pairs the
// Pulay mixer keeps, and pulayBeta is β, the step it takes along each
// kept residual. With β 0.5 the benchmark system converges in 11
// (Dirichlet) and 13 (periodic) steps at K 3; GPAW's K 5 is no faster
// there, and K 2 stops 4.9e-5 short of the benchmark's energy window
// edge.
const (
	pulayHistory = 3
	pulayBeta    = 0.5
)

// pulayMixer is the state of Pulay (DIIS) density mixing: the last
// pulayHistory input densities n_in,i and their residuals
// R_i = n_out,i − n_in,i, oldest first, and their Gram matrix
// gram[i][j] = ⟨R_i, R_j⟩ of exact global dots, identical on every rank
// and every layout. The pairs are halo-free grids of the rank's
// sub-domain, allocated on the first mix and rotated in place after
// that.
type pulayMixer struct {
	hist    int // live pairs: in[:hist], res[:hist]
	in, res [pulayHistory]*grid.Grid
	gram    [pulayHistory][pulayHistory]float64
	accs    [pulayHistory]detsum.Acc
	accp    [pulayHistory]*detsum.Acc

	// weights' storage: the rows of G and of its factor as linalg
	// matrices over gram and fac, and the weights.
	grows, lrows [pulayHistory][]float64
	fac          [pulayHistory][pulayHistory]float64
	alpha        [pulayHistory]float64
}

// mix takes the input density n and the density out = n_out it produced,
// pushes the pair (n, out − n) into the ring and overwrites n with the
// next input density Σ α_i (n_in,i + β R_i) over the ring, oldest first.
// It returns the residual ‖out − n‖₂. One sweep forms the new residual
// and accumulates its dots with every kept residual, one batched
// reduction returns the Gram matrix's new row, the weights come from a
// replicated K × K solve and a second pointwise sweep forms the mix, so
// every rank and layout computes the same bits. With one pair, α = 1 and
// the step is linear mixing.
//
//gpaw:hotpath
func (p *pulayMixer) mix(d *Dist, n, out *grid.Grid) float64 {
	for i := range p.in {
		if p.in[i] == nil {
			p.in[i], p.res[i] = grid.NewDims(d.local, 0), grid.NewDims(d.local, 0)
		}
	}
	if p.hist == pulayHistory {
		p.dropOldest()
	}
	k := p.hist
	p.hist++
	for i := range p.hist {
		p.accs[i].Reset()
		p.accp[i] = &p.accs[i]
	}
	nd, od := n.Data(), out.Data()
	ind, rd := p.in[k].Data(), p.res[k].Data()
	nz, pos := n.Nz, 0
	for i := 0; i < n.Nx; i++ {
		for j := 0; j < n.Ny; j++ {
			a, b := n.Index(i, j, 0), out.Index(i, j, 0)
			nrow, orow, r := nd[a:a+nz], od[b:b+nz], rd[pos:pos+nz]
			copy(ind[pos:pos+nz], nrow)
			for z := range r {
				r[z] = orow[z] - nrow[z]
			}
			for h := 0; h <= k; h++ {
				p.accs[h].AddMulSlice(r, p.res[h].Data()[pos:pos+nz])
			}
			pos += nz
		}
	}
	for h, v := range d.reduceAccs(p.accp[:p.hist]) {
		p.gram[k][h], p.gram[h][k] = v, v
	}
	residual := math.Sqrt(p.gram[k][k])
	alpha := p.weights()
	pos = 0
	for i := 0; i < n.Nx; i++ {
		for j := 0; j < n.Ny; j++ {
			a := n.Index(i, j, 0)
			nrow := nd[a : a+nz]
			for h, al := range alpha {
				in, r := p.in[h].Data()[pos:pos+nz], p.res[h].Data()[pos:pos+nz]
				if h == 0 {
					for z := range nrow {
						nrow[z] = float64(al * (in[z] + float64(pulayBeta*r[z])))
					}
					continue
				}
				for z := range nrow {
					nrow[z] += float64(al * (in[z] + float64(pulayBeta*r[z])))
				}
			}
			pos += nz
		}
	}
	grid.NoteTraffic(n.Points(), 4+3*p.hist)
	return residual
}

// weights returns the Pulay weights of the live pairs, oldest first:
// α = G⁻¹1 / 1ᵀG⁻¹1, the combination that minimises ‖Σ α_i R_i‖ under
// Σ α_i = 1. G is Cholesky-factored; while it is not positive definite
// the oldest pair is dropped. G is replicated, so every rank drops the
// same pairs. The weights are the mixer's storage, valid until the next
// call.
//
//gpaw:hotpath
func (p *pulayMixer) weights() []float64 {
	for p.hist > 1 {
		k := p.hist
		for i := range k {
			p.grows[i], p.lrows[i] = p.gram[i][:k], p.fac[i][:k]
		}
		l := linalg.Matrix(p.lrows[:k])
		if err := linalg.CholeskyInto(l, p.grows[:k]); err == nil {
			alpha := p.alpha[:k]
			for i := range alpha {
				alpha[i] = 1
			}
			linalg.BackSolveInto(alpha, l, linalg.ForwardSolveInto(alpha, l, alpha))
			sum := 0.0
			for _, a := range alpha {
				//lint:ignore detsumcheck at most pulayHistory replicated weights, folded in history order on every rank
				sum += a
			}
			for i := range alpha {
				alpha[i] /= sum
			}
			return alpha
		}
		p.dropOldest()
	}
	p.alpha[0] = 1
	return p.alpha[:1]
}

// dropOldest forgets the oldest pair, rotating its grids to the free end
// of the ring and the Gram matrix up one row and column.
func (p *pulayMixer) dropOldest() {
	in0, res0 := p.in[0], p.res[0]
	copy(p.in[:], p.in[1:])
	copy(p.res[:], p.res[1:])
	p.in[pulayHistory-1], p.res[pulayHistory-1] = in0, res0
	for i := 1; i < p.hist; i++ {
		copy(p.gram[i-1][:p.hist-1], p.gram[i][1:p.hist])
	}
	p.hist--
}

// updateVeff rebuilds the effective potential veff = vext + vh +
// v_x(n) in one sweep over flat rows.
func updateVeff(veff, vext, vh, n *grid.Grid) {
	od, ed, hd, nd := veff.Data(), vext.Data(), vh.Data(), n.Data()
	for i := 0; i < veff.Nx; i++ {
		for j := 0; j < veff.Ny; j++ {
			o := veff.Index(i, j, 0)
			e := vext.Index(i, j, 0)
			h := vh.Index(i, j, 0)
			m := n.Index(i, j, 0)
			for k := 0; k < veff.Nz; k++ {
				od[o+k] = ed[e+k] + hd[h+k] + xAlpha(nd[m+k])
			}
		}
	}
	grid.NoteTraffic(veff.Points(), 4)
}

// HarmonicPotential fills a grid with V(r) = 1/2 ω² |r - center|², the
// classic validation potential with analytic levels ω(n + 3/2).
func HarmonicPotential(dims topology.Dims, h, omega float64) *grid.Grid {
	v := grid.NewDims(dims, 2)
	cx := float64(dims[0]-1) / 2
	cy := float64(dims[1]-1) / 2
	cz := float64(dims[2]-1) / 2
	v.FillFunc(func(i, j, k int) float64 {
		dx := (float64(i) - cx) * h
		dy := (float64(j) - cy) * h
		dz := (float64(k) - cz) * h
		return 0.5 * omega * omega * (float64(dx*dx) + float64(dy*dy) + float64(dz*dz))
	})
	return v
}

// GaussianDensity fills a grid with a normalized Gaussian charge of
// standard deviation sigma centred in the box, total charge q.
func GaussianDensity(dims topology.Dims, h, sigma, q float64) *grid.Grid {
	g := grid.NewDims(dims, 2)
	cx := float64(dims[0]-1) / 2
	cy := float64(dims[1]-1) / 2
	cz := float64(dims[2]-1) / 2
	norm := q / math.Pow(2*math.Pi*sigma*sigma, 1.5)
	g.FillFunc(func(i, j, k int) float64 {
		dx := (float64(i) - cx) * h
		dy := (float64(j) - cy) * h
		dz := (float64(k) - cz) * h
		r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
		return norm * math.Exp(-r2/(2*sigma*sigma))
	})
	return g
}
