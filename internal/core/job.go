package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// Job describes a complete distributed finite-difference run on the real
// in-process runtime: the workload (grids), the machine layout (cores,
// threads per node) and the programming approach.
type Job struct {
	Global     topology.Dims // real-space grid extents (e.g. 144^3)
	NumGrids   int           // number of real-space grids (wave-functions)
	Radius     int           // stencil radius (2 for the paper's operator)
	Spacing    float64       // grid spacing h
	Periodic   bool          // periodic boundary condition
	Cores      int           // total CPU cores
	Threads    int           // cores per node (4 on Blue Gene/P)
	Approach   Approach
	BatchSize  int
	BatchRamp  bool
	Iterations int // applications of the operator to every grid
}

// Procs returns the number of MPI processes the job uses: one per core
// for flat approaches, one per node for hybrid ones.
func (j Job) Procs() (int, error) {
	if j.Cores < 1 {
		return 0, fmt.Errorf("core: %d cores", j.Cores)
	}
	if !j.Approach.Hybrid() {
		return j.Cores, nil
	}
	if j.Threads < 1 {
		return 0, fmt.Errorf("core: %d threads per node", j.Threads)
	}
	if j.Cores%j.Threads != 0 {
		return 0, fmt.Errorf("core: %d cores not divisible by %d threads/node", j.Cores, j.Threads)
	}
	return j.Cores / j.Threads, nil
}

// Result reports a finished job.
type Result struct {
	Wall     time.Duration
	Stats    Stats // summed over all ranks
	ProcGrid topology.Dims
	Output   *grid.Set // gathered global grids; nil unless requested
}

// TestField is the deterministic initial condition used for verification
// and benchmarks: a smooth, per-grid-distinct function of the global
// coordinates, so any decomposition must reproduce identical values.
// Every product is rounded through float64(...) so no architecture fuses
// it into an add: the field's bits are the same everywhere.
func TestField(g, x, y, z int) float64 {
	return math.Sin(float64(0.10*float64(x))+float64(0.05*float64(g))) +
		math.Cos(float64(0.07*float64(y))-float64(0.03*float64(g))) +
		math.Sin(0.13*float64(z)) +
		float64(0.25*math.Cos(0.11*float64(x+y+z)))
}

// Run executes the job on the in-process runtime and returns timing,
// aggregated communication statistics and, if gather is true, the global
// result grids assembled on rank 0.
func (j Job) Run(gather bool) (*Result, error) {
	procs, err := j.Procs()
	if err != nil {
		return nil, err
	}
	if j.NumGrids < 1 {
		return nil, fmt.Errorf("core: %d grids", j.NumGrids)
	}
	if j.Iterations < 1 {
		j.Iterations = 1
	}
	op := stencil.Laplacian(j.Radius, j.Spacing)
	procGrid := topology.DecomposeGrid(procs, j.Global)
	decomp, err := grid.NewDecomp(j.Global, procGrid, j.Radius)
	if err != nil {
		return nil, err
	}
	opts := OptionsFor(j.Approach, j.BatchSize, j.Threads)
	opts.BatchRamp = j.BatchRamp

	mode := mpi.ThreadSingle
	if j.Approach == HybridMultiple {
		mode = mpi.ThreadMultiple
	}
	periodic := [3]bool{j.Periodic, j.Periodic, j.Periodic}

	res := &Result{ProcGrid: procGrid}
	if gather {
		res.Output = &grid.Set{Grids: make([]*grid.Grid, j.NumGrids)}
	}
	runErr := mpi.Run(procs, mode, func(c *mpi.Comm) {
		cart := c.CartCreate(procGrid, periodic, true)
		eng, err := NewEngine(cart, decomp, op, j.Periodic, opts)
		if err != nil {
			panic(err)
		}
		defer eng.Close()
		coord := eng.Coord()
		off := decomp.Offset(coord)

		src := make([]*grid.Grid, j.NumGrids)
		dst := make([]*grid.Grid, j.NumGrids)
		for g := range src {
			src[g] = eng.NewLocalGrid()
			dst[g] = eng.NewLocalGrid()
			g := g
			src[g].FillFunc(func(i, k, l int) float64 {
				return TestField(g, off[0]+i, off[1]+k, off[2]+l)
			})
		}

		c.Barrier()
		start := time.Now()
		for it := 0; it < j.Iterations; it++ {
			eng.Apply(j.Approach, dst, src)
			src, dst = dst, src
		}
		c.Barrier()
		if c.Rank() == 0 {
			res.Wall = time.Since(start)
		}

		// Aggregate statistics.
		st := eng.Stats()
		in := []float64{
			float64(st.MessagesSent), float64(st.BytesSent),
			float64(st.LargestMsg), float64(st.Exchanges),
		}
		out := make([]float64, len(in))
		c.Reduce(0, mpi.OpSum, in[:2], out[:2])
		c.Reduce(0, mpi.OpMax, in[2:3], out[2:3])
		c.Reduce(0, mpi.OpSum, in[3:4], out[3:4])
		if c.Rank() == 0 {
			res.Stats = Stats{
				MessagesSent: int64(out[0]),
				BytesSent:    int64(out[1]),
				LargestMsg:   int64(out[2]),
				Exchanges:    int64(out[3]),
			}
		}

		if !gather {
			return
		}
		// Assemble global grids on rank 0. Tags: grid index.
		if c.Rank() == 0 {
			for g := 0; g < j.NumGrids; g++ {
				global := grid.NewDims(j.Global, 0)
				// Rank 0's own part.
				decomp.Gather(global, coord, src[g])
				buf := make([]float64, decomp.MaxLocalPoints())
				for r := 1; r < procs; r++ {
					rc := procGrid.Coord(r)
					n := decomp.LocalDims(rc).Count()
					c.Recv(r, g, buf[:n])
					lg := grid.NewDims(decomp.LocalDims(rc), 0)
					lg.SetInterior(buf[:n])
					decomp.Gather(global, rc, lg)
				}
				res.Output.Grids[g] = global
			}
		} else {
			for g := 0; g < j.NumGrids; g++ {
				c.Send(0, g, src[g].InteriorSlice())
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// Sequential computes the job's reference result on a single process
// with direct periodic (or Dirichlet) halo fills — the ground truth all
// approaches must match bitwise.
func (j Job) Sequential() *grid.Set {
	op := stencil.Laplacian(j.Radius, j.Spacing)
	iters := j.Iterations
	if iters < 1 {
		iters = 1
	}
	set := grid.NewSet(j.NumGrids, j.Global, j.Radius)
	set.FillSeparable(func(g, x, y, z int) float64 { return TestField(g, x, y, z) })
	dst := grid.NewSet(j.NumGrids, j.Global, j.Radius)
	srcs, dsts := set.Grids, dst.Grids
	for it := 0; it < iters; it++ {
		for g := range srcs {
			if j.Periodic {
				op.ApplyPeriodicReference(dsts[g], srcs[g])
			} else {
				op.ApplyZeroReference(dsts[g], srcs[g])
			}
		}
		srcs, dsts = dsts, srcs
	}
	return &grid.Set{Grids: srcs}
}

// Verify runs the job with gathering and compares against the sequential
// reference, returning the maximum absolute deviation (0 for a correct
// engine) plus the run result.
func (j Job) Verify() (float64, *Result, error) {
	res, err := j.Run(true)
	if err != nil {
		return 0, nil, err
	}
	want := j.Sequential()
	return res.Output.MaxAbsDiff(want), res, nil
}
