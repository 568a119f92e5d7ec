package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
	"repro/internal/trace"
)

// The paper's machine shape for fd_batch: 8 cores, 4 per node, so the
// flat approaches run 8 single-threaded processes and the hybrid ones
// 2 processes of 4 threads.
const (
	fdCores   = 8
	fdThreads = 4
	fdRadius  = 2
	fdSpacing = 1.0
)

// fdDetail is the per-approach breakdown of one fd_batch operation.
type fdDetail struct {
	setup  []window // world, engine and source-field construction, one per approach
	loopNs [4]int64
}

// fdRun is what one approach's world measured.
type fdRun struct {
	setup, loop window     // construction; the timed applications
	rankNs      int64      // ranks x the world's whole lifetime
	stats       core.Stats // summed over ranks, timed loop only
}

// fdReference applies the operator apps times to every source grid on
// one process with direct periodic halo fills: the ground truth every
// approach must match bit for bit.
func fdReference(in *inputs, apps int) *grid.Set {
	n := in.sz.fdN
	dims := topology.Dims{n, n, n}
	op := stencil.Laplacian(fdRadius, fdSpacing)
	src := grid.NewSet(in.sz.fdGrids, dims, fdRadius)
	src.FillSeparable(in.fdField)
	dst := grid.NewSet(in.sz.fdGrids, dims, fdRadius)
	for it := 0; it < apps; it++ {
		for g := range src.Grids {
			op.ApplyPeriodicReference(dst.Grids[g], src.Grids[g])
		}
		src, dst = dst, src
	}
	return src
}

// fdProcs returns the process count, thread mode and process grid an
// approach runs fd_batch on.
func fdProcs(a core.Approach, global topology.Dims) (int, mpi.ThreadMode, topology.Dims) {
	procs, mode := fdCores, mpi.ThreadSingle
	if a.Hybrid() {
		procs = fdCores / fdThreads
	}
	if a == core.HybridMultiple {
		mode = mpi.ThreadMultiple
	}
	return procs, mode, topology.DecomposeGrid(procs, global)
}

// fdApproach runs one approach: build the world, engines and source
// fields, warm up, time sz.fdTimed applications between barriers, and
// compare every rank's block with ref, bit for bit.
func fdApproach(in *inputs, a core.Approach, tr *trace.Tracer, ref *grid.Set) (fdRun, error) {
	var out fdRun
	sz := in.sz
	global := topology.Dims{sz.fdN, sz.fdN, sz.fdN}
	procs, mode, procGrid := fdProcs(a, global)
	decomp, err := grid.NewDecomp(global, procGrid, fdRadius)
	if err != nil {
		return out, err
	}
	op := stencil.Laplacian(fdRadius, fdSpacing)
	w := mpi.NewWorld(procs, mode)
	if tr != nil {
		w.SetTracer(tr)
	}
	errs := make([]error, procs)
	stats := make([]core.Stats, procs)
	start := time.Now()
	runErr := w.Run(func(c *mpi.Comm) {
		cart := c.CartCreate(procGrid, [3]bool{true, true, true}, true)
		eng, err := core.NewEngine(cart, decomp, op, true, core.OptionsFor(a, sz.fdBatch, fdThreads))
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		defer eng.Close()
		off := decomp.Offset(eng.Coord())
		src := make([]*grid.Grid, sz.fdGrids)
		dst := make([]*grid.Grid, sz.fdGrids)
		for g := range src {
			src[g], dst[g] = eng.NewLocalGrid(), eng.NewLocalGrid()
			src[g].FillFunc(func(i, j, k int) float64 { return in.fdField(g, off[0]+i, off[1]+j, off[2]+k) })
		}
		c.Barrier()
		if c.Rank() == 0 {
			out.setup = window{start, time.Now()}
		}
		for it := 0; it < sz.fdWarm; it++ {
			eng.Apply(a, dst, src)
			src, dst = dst, src
		}
		eng.ResetStats()
		c.Barrier()
		t0 := time.Now()
		for it := 0; it < sz.fdTimed; it++ {
			eng.Apply(a, dst, src)
			src, dst = dst, src
		}
		c.Barrier()
		if c.Rank() == 0 {
			out.loop = window{t0, time.Now()}
		}
		stats[c.Rank()] = eng.Stats()
		errs[c.Rank()] = fdCompare(src, ref, off)
	})
	out.rankNs = int64(procs) * int64(time.Since(start))
	for _, s := range stats {
		addStats(&out.stats, s)
	}
	if err := errors.Join(append(errs, runErr)...); err != nil {
		return out, fmt.Errorf("%v: %w", a, err)
	}
	return out, nil
}

// fdCompare checks a rank's local blocks against the matching region of
// the sequential reference, bit for bit.
func fdCompare(local []*grid.Grid, ref *grid.Set, off topology.Coord) error {
	for g, lg := range local {
		rg := ref.Grids[g]
		for i := 0; i < lg.Nx; i++ {
			for j := 0; j < lg.Ny; j++ {
				for k := 0; k < lg.Nz; k++ {
					got, want := lg.At(i, j, k), rg.At(off[0]+i, off[1]+j, off[2]+k)
					if math.Float64bits(got) != math.Float64bits(want) {
						return fmt.Errorf("grid %d at (%d,%d,%d): %x differs from sequential reference %x",
							g, off[0]+i, off[1]+j, off[2]+k, got, want)
					}
				}
			}
		}
	}
	return nil
}

func newFDBatch(in *inputs) *workload {
	n := in.sz.fdN
	global := topology.Dims{n, n, n}
	var ref *grid.Set
	w := &workload{name: "fd_batch", hostExponent: 1.5, clock: trace.Wall, ring: 1 << 16}
	w.prepare = func() error {
		ref = fdReference(in, in.sz.fdWarm+in.sz.fdTimed)
		return nil
	}
	// One operation is the four approaches back to back. Its wall time
	// is the four timed loops, the quantity the paper plots; building
	// the worlds, engines and source fields is every operation's own
	// set-up and is what setup_s reports here.
	w.run = func(tr *trace.Tracer, _ gpaw.Store) opResult {
		r := opResult{fd: &fdDetail{}}
		for ai, a := range core.Approaches {
			run, err := fdApproach(in, a, tr, ref)
			if err != nil {
				r.err = err
				return r
			}
			r.fd.setup = append(r.fd.setup, run.setup)
			r.fd.loopNs[ai] = run.loop.ns()
			r.wallNs += run.loop.ns()
			r.timed = append(r.timed, run.loop)
			r.rankNs += run.rankNs
			addStats(&r.stats, run.stats)
		}
		return r
	}
	// The flat approaches' 2x2x2 process grid is the layout the probes use.
	w.layout(1, global, topology.DecomposeGrid(fdCores, global), true)
	w.points = in.sz.fdGrids * global.Count()
	return w
}
