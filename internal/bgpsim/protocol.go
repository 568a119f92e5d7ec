package bgpsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// Workload describes the finite-difference job being simulated.
type Workload struct {
	GridSize topology.Dims // extents of every real-space grid
	NumGrids int           // number of grids (wave-functions)
	Radius   int           // stencil radius (2 = the paper's operator)
	Elem     int           // bytes per grid point (8 = real)
	// Applications is how many times the operation is applied to every
	// grid; times and traffic scale linearly with it.
	Applications int
}

// withDefaults fills in the paper's constants for unset fields.
func (w Workload) withDefaults() Workload {
	if w.Radius == 0 {
		w.Radius = 2
	}
	if w.Elem == 0 {
		w.Elem = 8
	}
	if w.Applications == 0 {
		w.Applications = 1
	}
	return w
}

// FlopsPerPoint returns the stencil flops per output point.
func (w Workload) FlopsPerPoint() int { return 2*(6*w.Radius+1) - 1 }

// Config selects the machine configuration and programming approach.
type Config struct {
	Cores    int
	Approach core.Approach
	// SplitGroups enables the paper's section-VII control experiment:
	// Flat optimized with the grids statically divided into four
	// sub-groups so each core works on node-level sub-grids. Only
	// meaningful with Approach == FlatOptimized.
	SplitGroups bool
	BatchSize   int
	BatchRamp   bool
	Params      Params
}

// Result reports one simulated configuration.
type Result struct {
	Time        float64 // seconds for all Applications
	Utilization float64 // useful compute time / (cores x wall)
	// InterNodeBytes is torus traffic leaving one node over the run.
	InterNodeBytes float64
	// IntraNodeBytes is MPI traffic between co-located ranks (VN mode).
	IntraNodeBytes float64
	// Messages is the number of MPI messages sent by one node.
	Messages float64
	// ComputePerCore is the useful compute seconds per core.
	ComputePerCore float64
	// Layout echoes the decomposition used.
	RankGrid, NodeGrid topology.Dims
	Torus              bool
	LocalDims          topology.Dims
}

// CommPerNodeMB returns total MPI bytes per node in megabytes, the
// quantity on Figure 6's right axis.
func (r Result) CommPerNodeMB() float64 {
	return (r.InterNodeBytes + r.IntraNodeBytes) / 1e6
}

// buildLayout maps the configuration onto nodes, ranks and sub-domains.
func buildLayout(w Workload, cfg Config) (layout, error) {
	var lay layout
	cores := cfg.Cores
	if cores < 1 {
		return lay, fmt.Errorf("bgpsim: %d cores", cores)
	}
	if cores > CoresPerNode && cores%CoresPerNode != 0 {
		return lay, fmt.Errorf("bgpsim: %d cores not a multiple of %d", cores, CoresPerNode)
	}
	hybridLike := cfg.Approach.Hybrid() || cfg.SplitGroups
	if hybridLike {
		nodes := 1
		threads := cores
		if cores > CoresPerNode {
			nodes = cores / CoresPerNode
			threads = CoresPerNode
		}
		lay.rankGrid = topology.DecomposeGrid(nodes, w.GridSize)
		lay.nodeGrid = lay.rankGrid
		lay.intra = topology.Dims{1, 1, 1}
		lay.ranksNode = threads
	} else {
		ranksPerNode := cores
		if ranksPerNode > CoresPerNode {
			ranksPerNode = CoresPerNode
		}
		lay.rankGrid = topology.DecomposeGrid(cores, w.GridSize)
		intra, err := bestIntraDims(ranksPerNode, lay.rankGrid, w.GridSize)
		if err != nil {
			return lay, err
		}
		lay.intra = intra
		for d := 0; d < 3; d++ {
			lay.nodeGrid[d] = lay.rankGrid[d] / intra[d]
		}
		lay.ranksNode = ranksPerNode
	}
	lay.net = Partition(lay.nodeGrid)
	lay.local = topology.SubdomainSize(w.GridSize, lay.rankGrid, topology.Coord{0, 0, 0})
	for d := 0; d < 3; d++ {
		if lay.rankGrid[d] > 1 && w.GridSize[d]/lay.rankGrid[d] < w.Radius {
			return lay, fmt.Errorf("bgpsim: sub-domain thinner than halo in dim %d (%v over %v)",
				d, w.GridSize, lay.rankGrid)
		}
	}
	return lay, nil
}

// bestIntraDims factors ranksPerNode into a 3-D block that divides the
// rank grid, choosing the factorization that keeps the node's combined
// sub-domain closest to cubic (minimizing inter-node surface), which is
// what BGP's reordered Cartesian mapping achieves in virtual mode.
func bestIntraDims(ranksPerNode int, rankGrid, g topology.Dims) (topology.Dims, error) {
	best := topology.Dims{}
	bestScore := -1.0
	for x := 1; x <= ranksPerNode; x++ {
		if ranksPerNode%x != 0 || rankGrid[0]%x != 0 {
			continue
		}
		rest := ranksPerNode / x
		for y := 1; y <= rest; y++ {
			if rest%y != 0 || rankGrid[1]%y != 0 {
				continue
			}
			z := rest / y
			if rankGrid[2]%z != 0 {
				continue
			}
			// Node block extents; smaller surface is better.
			sx := float64(g[0]) / float64(rankGrid[0]/x)
			sy := float64(g[1]) / float64(rankGrid[1]/y)
			sz := float64(g[2]) / float64(rankGrid[2]/z)
			surface := 2 * (float64(sx*sy) + float64(sy*sz) + float64(sx*sz))
			if bestScore < 0 || surface < bestScore {
				bestScore = surface
				best = topology.Dims{x, y, z}
			}
		}
	}
	if bestScore < 0 {
		return best, fmt.Errorf("bgpsim: cannot place %d ranks per node onto rank grid %v", ranksPerNode, rankGrid)
	}
	return best, nil
}

// Simulate runs one configuration on the representative-node model and
// returns its predicted performance.
func Simulate(w Workload, cfg Config) (Result, error) {
	w = w.withDefaults()
	if w.NumGrids < 1 {
		return Result{}, fmt.Errorf("bgpsim: %d grids", w.NumGrids)
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	lay, err := buildLayout(w, cfg)
	if err != nil {
		return Result{}, err
	}
	prm := cfg.Params
	if prm == (Params{}) {
		prm = DefaultParams()
	}

	k := sim.NewKernel()
	nd := &node{k: k, prm: prm, lay: lay}

	active := cfg.Cores
	if active > CoresPerNode {
		active = CoresPerNode
	}
	opts := core.OptionsFor(cfg.Approach, cfg.BatchSize, CoresPerNode)
	opts.BatchRamp = cfg.BatchRamp
	x0 := replay{forkJoin: cfg.Approach == core.HybridMasterOnly, points: lay.local.Count(),
		tpp: prm.PointTime(w.FlopsPerPoint(), 16, active), active: active}
	for d := 0; d < 3; d++ {
		x0.faceBytes[d] = topology.HaloBytes(lay.local, d, w.Radius, w.Elem)
		x0.commDim[d] = lay.rankGrid[d] > 1
	}
	// run places one simulated rank or thread on the node and replays
	// the schedule over its share of the grids.
	run := func(r *simRank, grids int) {
		nd.ranks = append(nd.ranks, r)
		if grids == 0 {
			return
		}
		x := x0
		x.r = r
		k.Spawn(func(p *sim.Proc) {
			x.p = p
			core.Schedule(opts, grids, false, &x)
			if cfg.Approach == core.HybridMultiple {
				p.Hold(prm.JoinOnce)
			}
		})
	}
	switch {
	case cfg.SplitGroups || cfg.Approach == core.HybridMultiple:
		// Whole grids divided among the node's threads or, with
		// SplitGroups, among its grid groups, one per core.
		for i := 0; i < lay.ranksNode; i++ {
			_, n := topology.Split(w.NumGrids, lay.ranksNode, i)
			run(&simRank{nd: nd, idx: i, multiple: !cfg.SplitGroups}, n)
		}
	case cfg.Approach == core.HybridMasterOnly:
		run(&simRank{nd: nd}, w.NumGrids)
	default: // flat layouts: every rank owns a piece of every grid
		for i := 0; i < lay.ranksNode; i++ {
			run(&simRank{nd: nd, idx: i, intraPos: lay.intra.Coord(i)}, w.NumGrids)
		}
	}
	wall := k.Run()
	if wall <= 0 {
		wall = 1e-12
	}

	apps := float64(w.Applications)
	res := Result{
		Time:           wall * apps,
		Utilization:    nd.useful / (float64(active) * wall),
		InterNodeBytes: nd.interBytes.Total() * apps,
		IntraNodeBytes: nd.intraBytes.Total() * apps,
		Messages:       nd.messages.Total() * apps,
		ComputePerCore: nd.useful / float64(active) * apps,
		RankGrid:       lay.rankGrid,
		NodeGrid:       lay.nodeGrid,
		Torus:          lay.net.Torus,
		LocalDims:      lay.local,
	}
	return res, nil
}

// replay prices the actions of core.Schedule for one rank or thread on
// the node model, in the live engine's order.
type replay struct {
	p         *sim.Proc
	r         *simRank
	forkJoin  bool // hybrid master-only: each grid fork-joins the threads
	tpp       float64
	points    int // local points per grid
	active    int // cores computing on the node
	faceBytes [3]int64
	commDim   [3]bool // the dimension crosses rank boundaries
}

// stepDims returns the dimensions [lo, hi) a Schedule action names.
func stepDims(dim int) (lo, hi int) {
	if dim == core.AllDims {
		return 0, 3
	}
	return dim, dim + 1
}

// Post charges, per dimension that crosses rank boundaries, the posting
// of both receives, the pack of the batch's faces and both sends, as
// core.Engine.postDim runs them.
func (x *replay) Post(_ int, b core.Batch, dim int) {
	lo, hi := stepDims(dim)
	for d := lo; d < hi; d++ {
		if !x.commDim[d] {
			continue
		}
		n := x.faceBytes[d] * int64(b.Size())
		x.r.post(x.p)
		x.r.post(x.p)
		x.r.copyCost(x.p, 2*n)
		x.r.sendFace(x.p, d, 0, n)
		x.r.sendFace(x.p, d, 1, n)
	}
}

// Wait awaits the batch's faces, then copies each dimension in order:
// the unpack of received faces, or the local wrap of an undivided
// dimension (core.Engine.unpackDim, grid.WrapHalos) — one copy per face
// either way.
func (x *replay) Wait(_ int, b core.Batch, dim int) {
	lo, hi := stepDims(dim)
	for d := lo; d < hi; d++ {
		if x.commDim[d] {
			x.r.awaitFace(x.p, d, 0)
			x.r.awaitFace(x.p, d, 1)
		}
	}
	for d := lo; d < hi; d++ {
		x.r.copyCost(x.p, 2*x.faceBytes[d]*int64(b.Size()))
	}
}

// Compute charges the stencil on every grid of the batch.
func (x *replay) Compute(b core.Batch, _ stencil.Region) {
	for g := 0; g < b.Size(); g++ {
		if x.forkJoin {
			x.r.nd.forkJoinCompute(x.p, x.points, x.tpp, x.active)
		} else {
			x.r.nd.compute(x.p, x.points, x.tpp)
		}
	}
}
