package gpaw

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/detsum"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// This file is the context every solver of this package runs on: the
// Poisson solver and its multigrid V-cycle, the eigensolver and the SCF
// loop run rank-parallel over an MPI Cartesian process grid, with each
// rank additionally running the shared-memory worker pool inside it —
// the paper's hybrid execution model lifted from a single stencil apply
// to the full solver stack. A serial run is the same code on a one-rank
// context (SelfDist).
//
// Determinism contract: every solver is bit-identical for every rank
// count, process-grid shape and thread count — one rank included.
// Three mechanisms make this possible:
//
//  1. Halo exchange copies exact interior values (internal/core's
//     async/double-buffered protocol), so stencil reads across a
//     sub-domain boundary see the numbers an undecomposed grid holds
//     there.
//  2. Reductions accumulate into detsum.Acc and merge per-rank partial
//     accumulators exactly through mpi.AllreduceFunc in rank order, so
//     every dot product, norm and sum has the same bits regardless of
//     the decomposition or message arrival order.
//  3. Everything else is elementwise and runs the very same fused
//     kernels (internal/stencil) on local sub-domains.
//
// The four programming approaches map onto solver execution as:
// flat original (serialized exchange, no batching, no threads), flat
// optimized (async exchange + double buffering + batching), hybrid
// multiple (wave-function batches divided among pool workers, each
// worker doing its own communication; MPI THREAD_MULTIPLE), and hybrid
// master-only (master thread communicates, each grid's compute is
// fork-joined across the pool; THREAD_SINGLE suffices).
//
// Split-phase overlap: every approach except flat original runs its hot
// iteration loops on the overlapped protocol of core.Engine.Run — the
// halo exchange is posted, the fused kernel sweeps the deep interior
// (every point that reads no halo) while the messages are in flight,
// the exchange completes and the same kernel finishes the sweep over
// the one-radius boundary shell. A sweep site states its kernel call
// once, on the stencil.Region the engine hands it
// (stencil.Operator.Over). Flat original keeps the original
// exchange-to-completion-then-compute structure as the differential
// baseline, DistConfig.NoOverlap forces that structure for any
// approach, and a one-rank domain grid always runs it: nothing is in
// flight there, and the split would only move the shell's share of the
// points off the worker pool. Because shell and interior reduction
// partials accumulate into the same exact detsum accumulators and every
// point is computed by exactly one phase with identical arithmetic, the
// overlapped solvers are bit-identical to the serialized ones — the
// overlap test matrix in dist_overlap_test.go asserts this for
// solutions, iteration counts, eigenvalues and SCF energies.

// distTag is the base tag of the solver layer's gather/scatter traffic,
// far above the engine's halo-exchange tag space.
const distTag = 1 << 24

// DistConfig describes one rank's share of a distributed calculation.
type DistConfig struct {
	Global   topology.Dims // global grid extents
	Procs    topology.Dims // domain process grid (per band group)
	Bands    int           // band groups forming the bands x domain 2D layout (0 or 1 = domain-only)
	Halo     int           // halo thickness = stencil radius (2 for the paper's operators)
	BC       Boundary
	Approach core.Approach
	Threads  int // compute threads per rank for the hybrid approaches
	Batch    int // grids per halo-exchange message batch

	// ABFT arms algorithm-based fault tolerance: the subspace step holds
	// its Cholesky factor to a Huang–Abraham checksum (checkCholesky) and
	// NewDistSCF installs an SDCGuard, so silent data corruption surfaces
	// as a typed *ErrSDCDetected the fault-tolerant driver rolls back on.
	// Verification only reads results — bit-identity is unaffected.
	ABFT bool

	// NoOverlap forces the serialized exchange-then-compute structure
	// even for the optimized approaches, as the differential baseline
	// the overlapped protocol is verified against. The default (false)
	// overlaps halo communication with deep-interior compute in every
	// approach except FlatOriginal, whose defining property is the
	// absence of every section-V optimization — wherever there is a
	// neighbour to exchange with (Procs.Count() > 1).
	NoOverlap bool

	// Map selects how NetCoords places this layout onto a network's
	// nodes when a calibrated transport model is armed (see
	// mpi.NetModel): linear fill, Cartesian embedding or worst-case
	// shuffle. It only affects modeled message costs, never results.
	Map topology.Mapping

	// NetCompute charges the calibrated per-point stencil cost
	// (bgpsim's PointTime over this config's operator shape and thread
	// count) to the rank's virtual clock for every fused sweep, so a
	// NoComputeWall model run has deterministic compute to hide
	// communication behind. No-op without an armed network model.
	NetCompute bool
}

// NetCoords places this configuration's rank layout onto the nodes of
// a network for mpi.NetModel.Coords: the bands x domain world layout
// through topology.MapBands (plain MapGrid when domain-only), using
// cfg.Map as the strategy. Callable before any world exists — the
// model must be armed before ranks start.
func NetCoords(cfg DistConfig, net topology.Network) []topology.Coord {
	bands := cfg.Bands
	if bands < 1 {
		bands = 1
	}
	return topology.MapBands(bands, cfg.Procs, net, cfg.Map)
}

// Dist ties one MPI rank into a distributed real-space calculation: the
// local sub-domain, the Cartesian domain communicator, the band
// communicator crossing band groups at fixed domain coordinate, the
// halo-exchange engine and the per-rank worker pool. With Bands > 1 the
// ranks form a bands x domain 2D layout: world rank r belongs to band
// group r / Procs.Count() and holds domain rank r % Procs.Count()
// within it (see bands.go).
type Dist struct {
	Cart     *mpi.Cart
	Decomp   *grid.Decomp
	BC       Boundary
	Approach core.Approach
	// ABFT mirrors DistConfig.ABFT: checksum-verified subspace step.
	ABFT bool

	// World is the full bands x domain communicator NewDist was given.
	World *mpi.Comm
	// Bands is the number of band groups; Band is this rank's group.
	Bands, Band int
	// BandComm connects the ranks holding this domain sub-domain across
	// all band groups (size Bands, rank = band group index).
	BandComm *mpi.Comm

	eng   *core.Engine
	pool  *stencil.Pool
	coord topology.Coord
	off   topology.Coord
	local topology.Dims

	// overlap selects the split-phase protocol for the hot solver loops
	// (see the package comment).
	overlap bool

	// sw is the fused sweep in progress behind the engine (Dist.run)
	// and sweepFn the one compute callback every such sweep hands
	// Engine.Run, Dist.compute, built on first use: a closure per call
	// would escape into the engine's hybrid-multiple fan-out and cost an
	// allocation. one holds the destination and source of a one-grid
	// sweep (withOverlap's and Hamiltonian.Apply's); rot and move are
	// the pool Tasks of bandRotate and of the V-cycle's level transfers.
	// All are touched only from the rank's master goroutine.
	sw      sweep
	sweepFn func(core.Batch, stencil.Region)
	one     [2]*grid.Grid
	rot     rotation
	move    levelTransfer

	// redIn, redOut and redVals are reduceAccs' transport and result
	// scratch, sized on first use, and acc the scalar reductions' (and
	// the Poisson solve's fused ones') accumulator; sym holds
	// bandSymMatrix's pairs of the owned columns and its merge buffers,
	// states the eigen pass's second state set and gatherBands' halo-free
	// grids for other groups' states with their flat transport, fields
	// the work grids of the Poisson solve and the SCF step, mg the
	// solve's V-cycle hierarchy (Dist.hierarchy), sub the subspace
	// step's m x m storage (Dist.subspace) and neg the Poisson solve's
	// negated operator (Dist.negated) — all born on first use, none in
	// NewDist. cgIters counts the conjugate-gradient iterations run on
	// this Dist.
	redIn, redOut, redVals []float64
	acc                    detsum.Acc
	sym                    symScratch
	states                 stateScratch
	fields                 fieldScratch
	mg                     *multigrid
	sub                    *subspaceScratch
	neg, negOf             *stencil.Operator // neg = -negOf
	cgIters                int

	// pointNs is the modeled per-point sweep cost in virtual ns charged
	// through mpi.Comm.Compute (0: charging off). It already includes
	// the 1/Threads parallel speedup, so charges from concurrently
	// communicating workers simply add.
	pointNs float64
}

// NewDist builds the per-rank distributed context. Every rank of the
// communicator must call it with identical configuration. The
// communicator size must equal Bands * Procs.Count(); contiguous runs
// of Procs.Count() world ranks form the band groups, so each group's
// domain communicator keeps the Cartesian rank order of the
// domain-only layout.
func NewDist(comm *mpi.Comm, cfg DistConfig) (*Dist, error) {
	bands := cfg.Bands
	if bands < 1 {
		bands = 1
	}
	nproc := cfg.Procs.Count()
	if bands*nproc != comm.Size() {
		return nil, fmt.Errorf("gpaw: bands x domain layout %d x %v needs %d ranks, have %d",
			bands, cfg.Procs, bands*nproc, comm.Size())
	}
	dec, err := grid.NewDecomp(cfg.Global, cfg.Procs, cfg.Halo)
	if err != nil {
		return nil, err
	}
	band := comm.Rank() / nproc
	domainComm := comm.Split(func(r int) int { return r / nproc })
	bandComm := comm.Split(func(r int) int { return r % nproc })
	periodic := cfg.BC == Periodic
	cart := domainComm.CartCreate(cfg.Procs, [3]bool{periodic, periodic, periodic}, true)
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	// The engine's operator only shapes the exchange (face thickness =
	// its radius); solvers pass their own operators to the kernels.
	shape := stencil.Laplacian(cfg.Halo, 1)
	eng, err := core.NewEngine(cart, dec, shape, periodic, core.OptionsFor(cfg.Approach, cfg.Batch, cfg.Threads))
	if err != nil {
		return nil, err
	}
	d := &Dist{Cart: cart, Decomp: dec, BC: cfg.BC, Approach: cfg.Approach, ABFT: cfg.ABFT,
		World: comm, Bands: bands, Band: band, BandComm: bandComm,
		eng: eng, pool: eng.WorkerPool(),
		overlap: !cfg.NoOverlap && cfg.Approach != core.FlatOriginal && nproc > 1}
	d.coord = cart.Coords(cart.Rank())
	d.off = dec.Offset(d.coord)
	d.local = dec.LocalDims(d.coord)
	if cfg.NetCompute {
		if _, on := comm.World().NetConfig(); on {
			// Calibrated per-point sweep cost of this config's operator
			// shape, with the rank's threads computing concurrently.
			p := bgpsim.DefaultParams()
			d.pointNs = p.PointTime(shape.FlopsPerPoint(), shape.BytesPerPoint(), cfg.Threads) /
				float64(cfg.Threads) * 1e9
		}
	}
	return d, nil
}

// SelfDist builds the one-rank context of a serial calculation: a
// dims-sized domain on mpi.Self, so the calling goroutine is the rank,
// with the halo of 2 that the solvers' radius-2 stencils read.
// It is hybrid master-only over the process-wide worker pool — the
// caller communicates (with itself, for periodic wraps) and every sweep
// fork-joins across stencil.Shared() — and owns no goroutines, so it
// needs no Close. It panics on a grid without points.
func SelfDist(dims topology.Dims, bc Boundary) *Dist {
	d, err := NewDist(mpi.Self(), DistConfig{Global: dims, Procs: topology.Dims{1, 1, 1},
		Halo: 2, BC: bc, Approach: core.HybridMasterOnly})
	if err != nil {
		panic(err)
	}
	d.pool = stencil.Shared()
	return d
}

// chargePoints charges n stencil points of modeled compute to this
// rank's virtual clock (no-op unless NetCompute armed the charge rate).
func (d *Dist) chargePoints(n int) {
	if d.pointNs > 0 && n > 0 {
		d.Cart.Compute(time.Duration(float64(n) * d.pointNs))
	}
}

// chargeSweep charges one fused sweep over region r of a local grid.
func (d *Dist) chargeSweep(g *grid.Grid, r stencil.Region) {
	d.chargePoints(r.Points(g.Nx, g.Ny, g.Nz, d.Decomp.Halo))
}

// Close releases the rank's worker pool.
func (d *Dist) Close() { d.eng.Close() }

// Offset returns the global offset of this rank's sub-domain.
func (d *Dist) Offset() topology.Coord { return d.off }

// LocalDims returns this rank's sub-domain extents.
func (d *Dist) LocalDims() topology.Dims { return d.local }

// NewLocalGrid allocates a local grid covering this rank's sub-domain.
func (d *Dist) NewLocalGrid() *grid.Grid { return grid.NewDims(d.local, d.Decomp.Halo) }

// ScatterReplicated copies this rank's sub-domain out of a global grid
// every rank holds (deterministically constructed inputs such as
// external potentials). No communication.
func (d *Dist) ScatterReplicated(global *grid.Grid) *grid.Grid {
	return d.Decomp.Scatter(global, d.coord)
}

// fieldScratch holds the Dist-owned work grids of one SCF step, so a
// warmed step allocates none: conjugate gradients' right-hand side,
// residual, direction and operator image (the preconditioned residual
// is the hierarchy's), the SCF's unmixed density and the flat transport
// of its v_H band broadcast. Like the state set they are born on first
// use and touched only from the rank's master goroutine.
type fieldScratch struct {
	cgB, cgR, cgP, cgAp *grid.Grid
	density             *grid.Grid
	vhFlat              []float64
}

// scratchGrid returns the local work grid kept in *slot, born on first
// use: interior unspecified, halo as its last exchange left it.
func (d *Dist) scratchGrid(slot **grid.Grid) *grid.Grid {
	if *slot == nil {
		*slot = d.NewLocalGrid()
	}
	return *slot
}

// Stats returns the engine's accumulated communication statistics.
func (d *Dist) Stats() core.Stats { return d.eng.Stats() }

// sweep is one fused kernel behind the halo exchange, as data: the
// kernel k, built on the Full operator, and per exchanged state gi the
// destination dst[gi] of k applied to src[gi] (with prev[gi] when prev
// is set). acc is a reduction's accumulator, pool the pool each state's
// sweep splits across, and traced makes a Full sweep a compute.sweep
// region.
type sweep struct {
	k              stencil.Kernel
	dst, src, prev []*grid.Grid
	acc            *detsum.Acc
	pool           *stencil.Pool
	traced         bool
}

// run runs sw over its states through eng with the configured
// structure (see Engine.Run), sw.src being the states exchanged.
//
//gpaw:hotpath
func (d *Dist) run(eng *core.Engine, sw sweep) {
	if d.sweepFn == nil {
		d.sweepFn = d.compute
	}
	d.sw = sw
	eng.Run(sw.src, d.overlap, d.sweepFn)
	d.sw = sweep{}
}

// compute is the engine's compute callback of every sweep: d.sw's
// kernel narrowed to region r over the states of batch b, each sweep's
// modeled compute charged after it. The charge lands inside the
// engine's (or the sweep's) region and, for Interior, before the
// exchange's wait: under a network model the modeled arrival hides
// behind modeled compute — the overlap the calibrated benchmarks
// measure.
//
//gpaw:hotpath
func (d *Dist) compute(b core.Batch, r stencil.Region) {
	sw := &d.sw
	if r == stencil.Full && sw.traced {
		defer d.Cart.TraceRank().Region("compute.sweep").End()
	}
	k := sw.k.Over(r)
	for gi := b.Lo; gi < b.Hi; gi++ {
		var prev *grid.Grid
		if sw.prev != nil {
			prev = sw.prev[gi]
		}
		k.Apply(sw.pool, sw.dst[gi], sw.src[gi], prev, sw.acc)
		d.chargeSweep(sw.src[gi], r)
	}
}

// withOverlap runs sw on one grid — one halo exchange of src through
// eng plus the fused sweep of it into dst — with the configured
// structure, the sweep split across the Dist's pool. Overlapped, it
// covers Interior while the halo messages travel and Shell once they
// have landed; on the serialized baseline it covers Full after the
// blocking exchange, traced as a compute.sweep region. Both orders
// produce bit-identical results (exact reductions, identical per-point
// arithmetic); only the communication/computation schedule differs.
// eng is a parameter because the multigrid levels own engines of their
// own.
//
//gpaw:hotpath
func (d *Dist) withOverlap(eng *core.Engine, dst, src *grid.Grid, sw sweep) {
	d.one = [2]*grid.Grid{dst, src}
	sw.dst, sw.src, sw.pool, sw.traced = d.one[:1], d.one[1:], d.pool, true
	d.run(eng, sw)
}

// --- deterministic global reductions -------------------------------

// reduceAccs merges every rank's accumulators exactly (rank-ordered,
// arrival-order independent) and returns the rounded global values, one
// per accumulator, in scratch that the next reduction overwrites. All
// ranks receive identical results. Only the rank's master goroutine
// reduces (the collectives underneath demand it), so the scratch needs
// no lock.
//
//gpaw:hotpath
func (d *Dist) reduceAccs(accs []*detsum.Acc) []float64 {
	n := len(accs) * detsum.TransportLen
	if cap(d.redIn) < n {
		//lint:ignore hotpathalloc grow-once scratch, sized by the widest reduction (the subspace matrices) after the first iteration
		d.redIn, d.redOut, d.redVals = make([]float64, 0, n), make([]float64, n), make([]float64, len(accs))
	}
	in := d.redIn[:0]
	for _, a := range accs {
		in = a.Transport(in)
	}
	out := d.redOut[:n]
	d.Cart.AllreduceFunc(in, out, detsum.MergeTransport)
	vals := d.redVals[:len(accs)]
	for i := range vals {
		vals[i] = detsum.RoundTransport(out[i*detsum.TransportLen : (i+1)*detsum.TransportLen])
	}
	return vals
}

// reduceAcc reduces a single accumulator to its global value.
//
//gpaw:hotpath
func (d *Dist) reduceAcc(a *detsum.Acc) float64 {
	one := [1]*detsum.Acc{a}
	return d.reduceAccs(one[:])[0]
}

// verdict returns the world maximum of a rank-local status code (0: no
// fault; graver faults, larger codes): the one agreement through which
// a fault one rank saw sends every rank down the same branch with the
// same typed error, and none waits in a collective its peers left.
func (d *Dist) verdict(code int) int { return int(d.World.AllreduceMax(float64(code))) }

// Sum returns the global interior sum, with the bits of the exact sum
// over the undecomposed grid.
func (d *Dist) Sum(g *grid.Grid) float64 {
	d.acc.Reset()
	g.SumAcc(&d.acc)
	return d.reduceAcc(&d.acc)
}

// Dot returns the global inner product <a, b>.
func (d *Dist) Dot(a, b *grid.Grid) float64 {
	d.acc.Reset()
	a.DotAcc(b, &d.acc)
	return d.reduceAcc(&d.acc)
}

// Norm2 returns the global L2 norm.
func (d *Dist) Norm2(g *grid.Grid) float64 { return math.Sqrt(d.Dot(g, g)) }

// AxpyDot performs g += a*x locally and returns the global updated
// <g, g> in the same sweep.
func (d *Dist) AxpyDot(g *grid.Grid, a float64, x *grid.Grid) float64 {
	d.acc.Reset()
	g.AxpyDotAcc(a, x, &d.acc)
	return d.reduceAcc(&d.acc)
}

// removeMean subtracts the global interior mean (projects out the
// constant nullspace of the periodic Laplacian) with two sweeps
// and one exact reduction.
func (d *Dist) removeMean(g *grid.Grid) {
	mean := d.Sum(g) / float64(d.Decomp.Global.Count())
	g.AddScalar(-mean)
}

// --- per-approach wave-function processing -------------------------

// forEachExchanged runs sw over its states sw.src behind the approach's
// exchange protocol: for each state, Full once its halos are installed,
// or — overlapped — Interior while its batch's halo messages are in
// flight and Shell after they land. Hybrid multiple divides states
// among pool workers, each communicating for its own share; every other
// approach communicates on the caller. A single state's compute splits
// across the pool only for hybrid master-only, whose defining property
// is the per-grid fork-join.
//
//gpaw:hotpath
func (d *Dist) forEachExchanged(sw sweep) {
	sw.pool = nil
	if d.Approach == core.HybridMasterOnly {
		sw.pool = d.pool
	}
	d.run(d.eng, sw)
}

// DistSCF is the name SCF carried while a separate serial loop existed;
// the benchmark module (benchmark/) still spells it.
type DistSCF = SCF
