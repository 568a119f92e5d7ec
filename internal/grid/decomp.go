package grid

import (
	"fmt"

	"repro/internal/topology"
)

// Decomp describes the domain decomposition of a global real-space grid
// over a 3-D process grid. Every real-space grid in a GPAW simulation is
// decomposed identically: each process owns the same sub-domain of every
// grid (required by, e.g., wave-function orthogonalization).
type Decomp struct {
	Global topology.Dims // global grid extents
	Procs  topology.Dims // process grid extents
	Halo   int           // halo thickness (stencil radius)

	// starts[d], when non-nil, holds Procs[d]+1 custom split boundaries
	// for dimension d (starts[d][r] .. starts[d][r+1] is rank-coordinate
	// r's range). Nil dimensions use the balanced topology.Split. Custom
	// splits exist for layouts derived from other layouts — Doubled —
	// where the balanced split of the refined extent would not align
	// with the coarse one.
	starts [3][]int
}

// split returns the start offset and length of coordinate i along
// dimension d, honouring custom split boundaries when present.
func (dc *Decomp) split(d, i int) (start, length int) {
	if s := dc.starts[d]; s != nil {
		return s[i], s[i+1] - s[i]
	}
	return topology.Split(dc.Global[d], dc.Procs[d], i)
}

// NewDecomp builds a decomposition, validating that every process gets a
// sub-domain at least as thick as the halo in each decomposed dimension
// (a thinner sub-domain would need surface points from beyond its direct
// neighbours, which GPAW's one-neighbour exchange cannot supply).
func NewDecomp(global, procs topology.Dims, halo int) (*Decomp, error) {
	for d := 0; d < 3; d++ {
		if procs[d] < 1 {
			return nil, fmt.Errorf("grid: process grid %v has non-positive dimension", procs)
		}
		if global[d] < procs[d] {
			return nil, fmt.Errorf("grid: cannot split extent %d over %d processes", global[d], procs[d])
		}
		minLocal := global[d] / procs[d] // smallest sub-extent after Split
		if procs[d] > 1 && minLocal < halo {
			return nil, fmt.Errorf("grid: sub-domain extent %d thinner than halo %d in dim %d", minLocal, halo, d)
		}
	}
	return &Decomp{Global: global, Procs: procs, Halo: halo}, nil
}

// NewDecompOrFallback is NewDecomp with a shrink fallback: when the
// requested process grid would produce sub-domains thinner than the
// halo — the situation multigrid coarsening creates on every level
// halving — the process grid is shrunk per dimension to the largest
// feasible extent (down to 1 in that dimension) instead of erroring.
// It returns the decomposition, the process grid actually used, and
// whether a fallback was applied. Ranks outside the fallback grid own
// no points; the multigrid redistributes the level onto the surviving
// ranks' sub-communicator (Redistribute) and parks the rest.
func NewDecompOrFallback(global, procs topology.Dims, halo int) (*Decomp, topology.Dims, bool, error) {
	fell := false
	used := procs
	for d := 0; d < 3; d++ {
		if used[d] < 1 {
			return nil, procs, false, fmt.Errorf("grid: process grid %v has non-positive dimension", procs)
		}
		maxP := global[d]
		if halo > 0 {
			maxP = global[d] / halo
		}
		if maxP < 1 {
			maxP = 1
		}
		if used[d] > maxP {
			used[d] = maxP
			fell = true
		}
	}
	dec, err := NewDecomp(global, used, halo)
	if err != nil {
		return nil, procs, fell, err
	}
	return dec, used, fell, nil
}

// MustDecomp is NewDecomp panicking on error, for tests and examples.
func MustDecomp(global, procs topology.Dims, halo int) *Decomp {
	d, err := NewDecomp(global, procs, halo)
	if err != nil {
		panic(err)
	}
	return d
}

// NumProcs returns the number of processes in the decomposition.
func (d *Decomp) NumProcs() int { return d.Procs.Count() }

// LocalDims returns the sub-domain extents of the process at coordinate c.
func (d *Decomp) LocalDims(c topology.Coord) topology.Dims {
	var out topology.Dims
	for dim := 0; dim < 3; dim++ {
		_, out[dim] = d.split(dim, c[dim])
	}
	return out
}

// MaxLocalPoints returns the largest sub-domain point count of the
// decomposition — the receive-buffer size of a gather.
func (d *Decomp) MaxLocalPoints() int {
	max := 0
	for r := 0; r < d.NumProcs(); r++ {
		if n := d.LocalDims(d.Procs.Coord(r)).Count(); n > max {
			max = n
		}
	}
	return max
}

// Offset returns the global offset of the sub-domain at coordinate c.
func (d *Decomp) Offset(c topology.Coord) topology.Coord {
	var out topology.Coord
	for dim := 0; dim < 3; dim++ {
		out[dim], _ = d.split(dim, c[dim])
	}
	return out
}

// Doubled returns the decomposition of the twice-refined global grid
// (every extent doubled) over the same process grid, with every rank's
// split exactly twice its split here. In that layout a rank's fine
// sub-domain is precisely the 2x2x2 refinement of its coarse one, so
// full-weighting restriction and prolongation stay rank-local — the
// transfer layout the multigrid level redistribution moves residuals
// into before coarsening onto a shrunken process grid. The result
// carries the given halo (typically 0: it is a data layout, not an
// exchange layout).
func (d *Decomp) Doubled(halo int) *Decomp {
	out := &Decomp{
		Global: topology.Dims{2 * d.Global[0], 2 * d.Global[1], 2 * d.Global[2]},
		Procs:  d.Procs,
		Halo:   halo,
	}
	for dim := 0; dim < 3; dim++ {
		s := make([]int, d.Procs[dim]+1)
		for r := 0; r < d.Procs[dim]; r++ {
			start, _ := d.split(dim, r)
			s[r] = 2 * start
		}
		s[d.Procs[dim]] = out.Global[dim]
		out.starts[dim] = s
	}
	return out
}

// NewLocal allocates the local grid (with halo) for the process at c.
func (d *Decomp) NewLocal(c topology.Coord) *Grid {
	return NewDims(d.LocalDims(c), d.Halo)
}

// Scatter copies the sub-domain belonging to coordinate c out of a global
// grid (halo 0 or more) into a freshly allocated local grid.
func (d *Decomp) Scatter(global *Grid, c topology.Coord) *Grid {
	if global.Dims() != d.Global {
		panic("grid: Scatter global extent mismatch")
	}
	local := d.NewLocal(c)
	off := d.Offset(c)
	ld := local.Dims()
	for i := 0; i < ld[0]; i++ {
		for j := 0; j < ld[1]; j++ {
			for k := 0; k < ld[2]; k++ {
				local.Set(i, j, k, global.At(off[0]+i, off[1]+j, off[2]+k))
			}
		}
	}
	return local
}

// Gather copies a local grid's interior back into the right region of a
// global grid.
func (d *Decomp) Gather(global *Grid, c topology.Coord, local *Grid) {
	if global.Dims() != d.Global {
		panic("grid: Gather global extent mismatch")
	}
	off := d.Offset(c)
	ld := local.Dims()
	if ld != d.LocalDims(c) {
		panic("grid: Gather local extent mismatch")
	}
	for i := 0; i < ld[0]; i++ {
		for j := 0; j < ld[1]; j++ {
			for k := 0; k < ld[2]; k++ {
				global.Set(off[0]+i, off[1]+j, off[2]+k, local.At(i, j, k))
			}
		}
	}
}

// Set is an ordered collection of same-shape grids: the wave-functions of
// a simulation. GPAW systems typically hold thousands of these.
type Set struct {
	Grids []*Grid
}

// NewSet allocates n zero grids of the given extents and halo.
func NewSet(n int, dims topology.Dims, halo int) *Set {
	s := &Set{Grids: make([]*Grid, n)}
	for i := range s.Grids {
		s.Grids[i] = NewDims(dims, halo)
	}
	return s
}

// Len returns the number of grids.
func (s *Set) Len() int { return len(s.Grids) }

// Clone deep-copies the set.
func (s *Set) Clone() *Set {
	out := &Set{Grids: make([]*Grid, len(s.Grids))}
	for i, g := range s.Grids {
		out.Grids[i] = g.Clone()
	}
	return out
}

// FillSeparable fills grid i with f(i, x, y, z) for deterministic,
// per-grid-distinct test data.
func (s *Set) FillSeparable(f func(g, i, j, k int) float64) {
	for gi, g := range s.Grids {
		gi := gi
		g.FillFunc(func(i, j, k int) float64 { return f(gi, i, j, k) })
	}
}

// MaxAbsDiff returns the largest interior difference across all grids of
// two same-shaped sets.
func (s *Set) MaxAbsDiff(o *Set) float64 {
	if len(s.Grids) != len(o.Grids) {
		panic("grid: set length mismatch")
	}
	max := 0.0
	for i := range s.Grids {
		if d := s.Grids[i].MaxAbsDiff(o.Grids[i]); d > max {
			max = d
		}
	}
	return max
}
