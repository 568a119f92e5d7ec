package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
)

// opResult is what one operation of a workload produced.
type opResult struct {
	wallNs int64
	virtNs int64 // modelled makespan; 0 without a network model
	iters  int   // SCF iterations to scfTol; 0 for fd_batch
	err    error // why the operation failed its checks; nil if it passed
	// timed are the intervals wallNs adds up, for the host probe.
	timed []window
	// rankNs is the ledger's denominator: ranks x duration summed over
	// the worlds the operation ran, on the workload's clock.
	rankNs int64
	stats  core.Stats // halo-engine counters summed over ranks
	fd     *fdDetail  // fd_batch only
}

// workload is one of the benchmark's four sets of inputs and the
// operation timed on it.
type workload struct {
	name string
	// ranks is the largest world the operation runs: the tracer's track
	// count and the size the mpi probes run at. bands x procs is its
	// layout over the global grid; block is one rank's sub-domain, which
	// the kernel probes run on. points is the grid points one sweep over
	// all of the operation's grids touches.
	ranks    int
	bands    int
	global   topology.Dims
	procs    topology.Dims
	periodic bool
	block    topology.Dims
	points   int
	// hostExponent relates the host probe's slowdown to this workload's:
	// wall time grows as the probe's pace to this power. Fitted over five
	// sets of ten runs spread over several hours on the defining host
	// (README, "Steadiness"): 1 keeps both the spread within a set and the
	// drift between sets smallest for the SCF workloads, whose grids stay
	// in cache; fd_batch, which streams 56 MB, needs 1.5.
	hostExponent float64
	// clock is the one the traced pass's profile rows are read with:
	// virtual where a NoComputeWall model makes it deterministic.
	clock trace.Clock
	// ring is the tracer capacity per rank that holds one operation.
	ring int
	// prepare computes the same-commit reference results the checks
	// compare against. It is neither set-up nor measured work. nil where
	// the operation needs no reference.
	prepare func() error
	// setup is one construct-only pass: input generation plus building
	// every world, context and engine the operation needs, then tearing
	// them down. It is what setup_s times. nil where every operation
	// times its own construction (fd_batch).
	setup func() error
	// run performs one operation, traced when tr is non-nil, through
	// store when the operation checkpoints.
	run func(tr *trace.Tracer, store gpaw.Store) opResult
	// extras adds the traced-pass numbers that need runs of their own.
	extras func(m metrics, traced opResult) error
}

// layout fills in the fields derived from the world's shape.
func (w *workload) layout(bands int, global, procs topology.Dims, periodic bool) *workload {
	w.bands, w.global, w.procs, w.periodic = bands, global, procs, periodic
	w.ranks = bands * procs.Count()
	w.block = topology.Dims{global[0] / procs[0], global[1] / procs[1], global[2] / procs[2]}
	w.points = global.Count()
	return w
}

// addTimed closes an interval of the operation that began at from: it
// joins timed and wallNs, and its length in nanoseconds is returned.
func (r *opResult) addTimed(from time.Time) int64 {
	w := window{from, time.Now()}
	r.timed = append(r.timed, w)
	r.wallNs += w.ns()
	return w.ns()
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.MessagesSent += s.MessagesSent
	dst.BytesSent += s.BytesSent
	dst.Exchanges += s.Exchanges
	dst.LargestMsg = max(dst.LargestMsg, s.LargestMsg)
}

var workloadWhy = map[string]string{
	"scf_serial": "plain one-rank SCF baseline: exact reductions and the stencil row carry it, communication work must not show here",
	"scf_dist8":  "production-shaped run: 2 band groups x 2x2x1 periodic domain on the eager transport, checkpointed, then resumed on a re-tiled 4-rank world",
	"scf_bgp64":  "64 ranks under the calibrated BG/P model with compute as a fixed charge, so the virtual makespan isolates the communication schedule",
	"fd_batch":   "the paper's operation: the FD stencil over 32 grids of 48^3 under all four approaches; reductions, collectives and dense algebra are bypassed",
}

var workloadOrder = []string{"scf_serial", "scf_dist8", "scf_bgp64", "fd_batch"}

func newWorkload(name string, in *inputs) (*workload, error) {
	switch name {
	case "scf_serial":
		return newSCFSerial(in), nil
	case "scf_dist8":
		return newSCFDist8(in), nil
	case "scf_bgp64":
		return newSCFBGP64(in), nil
	case "fd_batch":
		return newFDBatch(in), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadOrder)
}

// --- SCF checks ----------------------------------------------------

//go:embed golden.json
var goldenJSON []byte

// golden holds the seed-0 total energies recorded when the benchmark
// was defined. The tolerance is loose enough that a different
// eigensolver at the same SCF tolerance still passes.
type golden struct {
	Dirichlet float64 `json:"dirichlet_hartree"`
	Periodic  float64 `json:"periodic_hartree"`
	Tol       float64 `json:"tolerance_hartree"`
}

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// checkGolden compares a seed-0 full-size energy with the recorded one.
func checkGolden(in *inputs, bc gpaw.Boundary, energy float64) error {
	if in.seed != 0 || in.sz.scfN != fullSizes.scfN {
		return nil
	}
	g, err := loadGolden()
	if err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want := g.Dirichlet
	if bc == gpaw.Periodic {
		want = g.Periodic
	}
	if math.Abs(energy-want) > g.Tol {
		return fmt.Errorf("total energy %.12f differs from golden %.12f by more than %g Ha", energy, want, g.Tol)
	}
	return nil
}

// scfRef is a serial result the distributed and resumed runs must
// reproduce bit for bit.
type scfRef struct {
	energy float64
	eig    []float64
	iters  int
}

func refOf(res *gpaw.SCFResult) *scfRef {
	return &scfRef{energy: res.TotalEnergy, eig: append([]float64(nil), res.Eigenvalues...), iters: res.Iterations}
}

// serialRef solves the system serially and keeps what the distributed
// runs are compared with.
func serialRef(in *inputs, bc gpaw.Boundary) (*scfRef, error) {
	res, err := serialSCF(in, bc)
	if err != nil {
		return nil, err
	}
	return refOf(res), nil
}

// matches reports how res differs from the reference, if it does.
func (r *scfRef) matches(res *gpaw.SCFResult) error {
	if res == nil {
		return errors.New("no result")
	}
	if res.Iterations != r.iters {
		return fmt.Errorf("%d SCF iterations, serial reference took %d", res.Iterations, r.iters)
	}
	if math.Float64bits(res.TotalEnergy) != math.Float64bits(r.energy) {
		return fmt.Errorf("total energy %x differs from serial reference %x", res.TotalEnergy, r.energy)
	}
	if len(res.Eigenvalues) != len(r.eig) {
		return fmt.Errorf("%d eigenvalues, serial reference has %d", len(res.Eigenvalues), len(r.eig))
	}
	for i, e := range res.Eigenvalues {
		if math.Float64bits(e) != math.Float64bits(r.eig[i]) {
			return fmt.Errorf("eigenvalue %d = %x differs from serial reference %x", i, e, r.eig[i])
		}
	}
	return nil
}

// serialSCF runs the plain serial solver and applies the checks that
// need no reference: convergence, the golden energy at seed 0, and the
// density integrating to the electron count.
func serialSCF(in *inputs, bc gpaw.Boundary) (*gpaw.SCFResult, error) {
	sys := in.system(bc)
	s := gpaw.NewSCF(sys)
	s.Tol = scfTol
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	if err := checkGolden(in, bc, res.TotalEnergy); err != nil {
		return nil, err
	}
	dV := scfSpacing * scfSpacing * scfSpacing
	if q := res.Density.Sum() * dV; math.Abs(q-scfElectrons) > 1e-6 {
		return nil, fmt.Errorf("density integrates to %.9f, want %d", q, scfElectrons)
	}
	return res, nil
}

// distSCF runs a distributed SCF on world w under cfg and returns rank
// 0's result with the halo-engine counters of all ranks. resume, when
// set, supplies the restart state on each rank's Dist instead of
// starting from the initial guess.
func distSCF(w *mpi.World, cfg gpaw.DistConfig, sys gpaw.System,
	resume func(d *gpaw.Dist) (*gpaw.SCFRestart, error)) (*gpaw.SCFResult, core.Stats, error) {
	var out *gpaw.SCFResult
	errs := make([]error, w.Size())
	stats := make([]core.Stats, w.Size())
	runErr := w.Run(func(c *mpi.Comm) {
		res, err := func() (*gpaw.SCFResult, error) {
			d, err := gpaw.NewDist(c, cfg)
			if err != nil {
				return nil, err
			}
			defer d.Close()
			defer func() { stats[c.Rank()] = d.Stats() }()
			s := gpaw.NewDistSCF(d, sys)
			s.Tol = scfTol
			if resume == nil {
				return s.Run()
			}
			rs, err := resume(d)
			if err != nil {
				return nil, err
			}
			return s.Resume(rs)
		}()
		errs[c.Rank()] = err
		if c.Rank() == 0 {
			out = res
		}
	})
	var sum core.Stats
	for _, st := range stats {
		addStats(&sum, st)
	}
	if err := errors.Join(append(errs, runErr)...); err != nil {
		return nil, sum, err
	}
	return out, sum, nil
}

// buildDist is the construct-only pass of a distributed workload: the
// world, its communicators, the decomposition, the halo engine and the
// worker pools come up and go down without solving anything.
func buildDist(w *mpi.World, cfg gpaw.DistConfig) error {
	errs := make([]error, w.Size())
	runErr := w.Run(func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, cfg)
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		d.Close()
	})
	return errors.Join(append(errs, runErr)...)
}

func armed(n int, tr *trace.Tracer) *mpi.World {
	w := mpi.NewWorld(n, mpi.ThreadSingle)
	if tr != nil {
		w.SetTracer(tr)
	}
	return w
}

// --- scf_serial ----------------------------------------------------

func newSCFSerial(in *inputs) *workload {
	sys := in.system(gpaw.Dirichlet)
	// ref is the latest untraced serial result. The serial solver has no
	// world to arm a tracer on, so the traced pass runs a one-rank
	// DistSCF and requires it to reproduce ref bit for bit.
	var ref *scfRef
	oneRank := gpaw.DistConfig{Global: sys.Dims, Procs: topology.Dims{1, 1, 1}, Halo: 2,
		BC: gpaw.Dirichlet, Approach: core.FlatOptimized, Threads: 1, Batch: 2}
	w := &workload{name: "scf_serial", hostExponent: 1, clock: trace.Wall, ring: 1 << 17}
	w.setup = func() error {
		fresh := newInputs(in.seed, in.sz)
		_ = gpaw.NewSCF(fresh.system(gpaw.Dirichlet))
		return nil
	}
	w.run = func(tr *trace.Tracer, _ gpaw.Store) opResult {
		var r opResult
		start := time.Now()
		if tr == nil {
			res, err := serialSCF(in, gpaw.Dirichlet)
			r.addTimed(start)
			r.err = err
			if err == nil {
				ref, r.iters = refOf(res), res.Iterations
			}
		} else if ref == nil {
			r.err = errors.New("traced pass needs an untraced serial result to compare with")
		} else {
			res, st, err := distSCF(armed(1, tr), oneRank, sys, nil)
			r.addTimed(start)
			r.stats, r.err = st, err
			if err == nil {
				r.iters, r.err = res.Iterations, ref.matches(res)
			}
		}
		r.rankNs = r.wallNs
		return r
	}
	return w.layout(1, sys.Dims, topology.Dims{1, 1, 1}, false)
}

// --- scf_dist8 -----------------------------------------------------

func newSCFDist8(in *inputs) *workload {
	sys := in.system(gpaw.Periodic)
	cfg8 := gpaw.DistConfig{Global: sys.Dims, Procs: topology.Dims{2, 2, 1}, Bands: 2, Halo: 2,
		BC: gpaw.Periodic, Approach: core.FlatOptimized, Threads: 1, Batch: 2}
	cfg4 := cfg8
	cfg4.Procs, cfg4.Bands = topology.Dims{1, 2, 2}, 1
	var ref *scfRef
	w := &workload{name: "scf_dist8", hostExponent: 1, clock: trace.Wall, ring: 3 << 17}
	w.prepare = func() (err error) {
		ref, err = serialRef(in, gpaw.Periodic)
		return err
	}
	w.setup = func() error {
		fresh := newInputs(in.seed, in.sz)
		_, _ = fresh.system(gpaw.Periodic), gpaw.NewMemStore()
		if err := buildDist(armed(8, nil), cfg8); err != nil {
			return err
		}
		return buildDist(armed(4, nil), cfg4)
	}
	w.run = func(tr *trace.Tracer, store gpaw.Store) opResult {
		if store == nil {
			store = gpaw.NewMemStore()
		}
		var r opResult
		// Checkpointed run on the 2 x (2x2x1) layout.
		start := time.Now()
		var first *gpaw.SCFResult
		errs := make([]error, 8)
		stats := make([]core.Stats, 8)
		runErr := armed(8, tr).Run(func(c *mpi.Comm) {
			res, err := gpaw.RunSCFFT(c, cfg8, sys, gpaw.FTConfig{Store: store, Every: 5, Keep: 2,
				Configure: func(s *gpaw.DistSCF) { s.Tol = scfTol },
				OnResult:  func(d *gpaw.Dist, _ *gpaw.SCFResult) { stats[c.Rank()] = d.Stats() }})
			errs[c.Rank()] = err
			if c.Rank() == 0 {
				first = res
			}
		})
		d8 := r.addTimed(start)
		if r.err = errors.Join(append(errs, runErr)...); r.err != nil {
			return r
		}
		// Restore onto 1x2x2 and finish there, from the newest generation
		// that still leaves an iteration to run: a run that converges
		// exactly on a checkpoint step would otherwise resume past its end.
		start = time.Now()
		resumed, st4, err := distSCF(armed(4, tr), cfg4, sys, func(d *gpaw.Dist) (*gpaw.SCFRestart, error) {
			steps, err := store.Steps()
			if err != nil {
				return nil, err
			}
			for i := len(steps) - 1; i >= 0; i-- {
				if steps[i] < first.Iterations {
					return gpaw.RestoreSCF(d, store, steps[i])
				}
			}
			return nil, fmt.Errorf("no checkpoint before iteration %d to resume from (have %v)", first.Iterations, steps)
		})
		d4 := r.addTimed(start)
		r.rankNs, r.stats = 8*d8+4*d4, st4
		for _, st := range stats {
			addStats(&r.stats, st)
		}
		if r.err = err; err != nil {
			return r
		}
		r.iters = first.Iterations
		if err := ref.matches(first); err != nil {
			r.err = fmt.Errorf("8-rank run: %w", err)
		} else if err := ref.matches(resumed); err != nil {
			r.err = fmt.Errorf("resumed 4-rank run: %w", err)
		}
		return r
	}
	return w.layout(2, sys.Dims, cfg8.Procs, true)
}

// --- scf_bgp64 -----------------------------------------------------

// modelledWorld returns the configuration and the armed world of a
// Dirichlet run on bands x procs ranks under the calibrated BG/P model:
// Cartesian placement, compute as a modelled per-point charge, no wall
// time in the virtual clocks, so the makespan is exactly reproducible.
func modelledWorld(sys gpaw.System, bands int, procs topology.Dims, tr *trace.Tracer) (gpaw.DistConfig, *mpi.World) {
	cfg := gpaw.DistConfig{Global: sys.Dims, Procs: procs, Bands: bands, Halo: 2, BC: sys.BC,
		Approach: core.FlatOptimized, Threads: 1, Batch: 2, Map: topology.MapCart, NetCompute: true}
	ranks := bands * procs.Count()
	m := bgpsim.NetModelFor(ranks)
	m.Coords = gpaw.NetCoords(cfg, m.Net)
	m.NoComputeWall = true
	w := mpi.NewWorld(ranks, mpi.ThreadSingle)
	w.SetNetModel(m)
	if tr != nil {
		w.SetTracer(tr)
	}
	return cfg, w
}

func newSCFBGP64(in *inputs) *workload {
	sys := in.system(gpaw.Dirichlet)
	procs := in.sz.bgpProcs
	var ref *scfRef
	w := &workload{name: "scf_bgp64", hostExponent: 1, clock: trace.Virtual, ring: 1 << 18}
	w.layout(2, sys.Dims, procs, false)
	w.prepare = func() (err error) {
		ref, err = serialRef(in, gpaw.Dirichlet)
		return err
	}
	w.setup = func() error {
		fresh := newInputs(in.seed, in.sz)
		cfg, world := modelledWorld(fresh.system(gpaw.Dirichlet), 2, procs, nil)
		return buildDist(world, cfg)
	}
	w.run = func(tr *trace.Tracer, _ gpaw.Store) opResult {
		start := time.Now()
		cfg, world := modelledWorld(sys, 2, procs, tr)
		res, st, err := distSCF(world, cfg, sys, nil)
		r := opResult{virtNs: int64(world.MaxVirtualTime()), stats: st, err: err}
		r.addTimed(start)
		r.rankNs = int64(w.ranks) * r.virtNs
		if err == nil {
			r.iters, r.err = res.Iterations, ref.matches(res)
		}
		return r
	}
	w.extras = func(m metrics, traced opResult) error { return bgpExtras(in, m, traced) }
	return w
}

// bgpExtras adds the two modelled comparisons that need runs of their
// own: the same SCF on 8 ranks for strong-scaling efficiency, and a
// 64-rank Poisson CG with and without halo/compute overlap.
func bgpExtras(in *inputs, m metrics, traced opResult) error {
	sys := in.system(gpaw.Dirichlet)
	ranks := 2 * in.sz.bgpProcs.Count()
	cfg, world := modelledWorld(sys, 2, topology.Dims{1, 2, 2}, nil)
	if _, _, err := distSCF(world, cfg, sys, nil); err != nil {
		return fmt.Errorf("8-rank modelled SCF: %w", err)
	}
	// Efficiency of going from 8 to the workload's rank count at fixed
	// problem size: rank-seconds before over rank-seconds after.
	if traced.virtNs > 0 {
		m["ledger.strong_scaling_eff_8to64"] = 8 * float64(world.MaxVirtualTime()) / (float64(ranks) * float64(traced.virtNs))
	}

	rhs := gpaw.GaussianDensity(sys.Dims, scfSpacing, 1.5, 1)
	var virt [2]time.Duration
	for i, noOverlap := range []bool{false, true} {
		cfg, world := modelledWorld(sys, 1, topology.BalancedDims(ranks), nil)
		cfg.NoOverlap = noOverlap
		errs := make([]error, ranks)
		runErr := world.Run(func(c *mpi.Comm) {
			d, err := gpaw.NewDist(c, cfg)
			if err != nil {
				errs[c.Rank()] = err
				return
			}
			defer d.Close()
			_, _, errs[c.Rank()] = gpaw.NewDistPoisson(d, scfSpacing).SolveCG(d.NewLocalGrid(), d.ScatterReplicated(rhs))
		})
		if err := errors.Join(append(errs, runErr)...); err != nil {
			return fmt.Errorf("modelled Poisson CG (NoOverlap=%v): %w", noOverlap, err)
		}
		virt[i] = world.MaxVirtualTime()
	}
	// Reported, not gated: a ratio can fall while both sides improve.
	m["core.overlap_gain_virt"] = float64(virt[1]) / float64(virt[0])
	return nil
}
