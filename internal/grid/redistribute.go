package grid

import (
	"fmt"

	"repro/internal/topology"
)

// Redistribution moves a globally decomposed field between two
// decompositions of the same global grid — the data-movement primitive
// behind multigrid level redistribution, where a coarse level leaves
// the solver's process grid for a shrunken one (NewDecompOrFallback
// shapes) and the surviving ranks take over the whole field.
//
// Rank r of the communicator owns sub-domain Procs.Coord(r) of each
// decomposition it belongs to (the row-major Cartesian convention used
// throughout). Ranks beyond a decomposition's process grid simply own
// nothing on that side: a shrink sends their data away, the reverse
// brings it back — the blocking receives are what parks them until the
// smaller grid is done.
//
// Every value is moved by plain copy, so redistribution is exact: a
// round trip A -> B -> A reproduces the original bits.

// Comm is the point-to-point transport a RedistPlan runs on. *mpi.Comm
// satisfies it; the indirection keeps this package free of a runtime
// dependency.
type Comm interface {
	Rank() int
	Send(to, tag int, data []float64)
	Recv(from, tag int, buf []float64) (src, gotTag, n int)
}

// xfer is one message of a redistribution: the global box exchanged
// with one peer, plus its reusable packing buffer (nil for the rank's
// overlap with itself, which copies grid to grid).
type xfer struct {
	peer int
	lo   topology.Coord // global lower corner of the box
	dims topology.Dims
	buf  []float64
}

// RedistPlan is the precomputed message schedule moving one rank's data
// from a src-layout grid to a dst-layout grid. The plan — box
// intersections and packing buffers — is computed once and reused every
// run, so steady-state redistribution allocates nothing.
type RedistPlan struct {
	src, dst *Decomp
	rank     int

	srcOff, dstOff topology.Coord
	sends, recvs   []xfer
	self           *xfer // overlap with my own dst sub-domain: direct copy
}

// IntersectBox returns the overlap of two boxes given by lower corner
// and extents — the intersection redistribution plans are built from,
// and checkpoint restore re-tiles stored sub-domain boxes by.
func IntersectBox(aLo topology.Coord, aDim topology.Dims, bLo topology.Coord, bDim topology.Dims) (lo topology.Coord, dims topology.Dims, ok bool) {
	for d := 0; d < 3; d++ {
		l := max(aLo[d], bLo[d])
		h := min(aLo[d]+aDim[d], bLo[d]+bDim[d])
		if h <= l {
			return lo, dims, false
		}
		lo[d] = l
		dims[d] = h - l
	}
	return lo, dims, true
}

// NewRedistPlan builds the schedule for the given rank. src and dst
// must decompose the same global extents; the communicator the plan
// later runs on must have at least max(src, dst process count) ranks.
func NewRedistPlan(rank int, src, dst *Decomp) *RedistPlan {
	if src.Global != dst.Global {
		panic(fmt.Sprintf("grid: redistribute between globals %v and %v", src.Global, dst.Global))
	}
	p := &RedistPlan{src: src, dst: dst, rank: rank}
	if rank < src.NumProcs() {
		sc := src.Procs.Coord(rank)
		p.srcOff = src.Offset(sc)
		sdim := src.LocalDims(sc)
		for rd := 0; rd < dst.NumProcs(); rd++ {
			dc := dst.Procs.Coord(rd)
			lo, dims, ok := IntersectBox(p.srcOff, sdim, dst.Offset(dc), dst.LocalDims(dc))
			if !ok {
				continue
			}
			x := xfer{peer: rd, lo: lo, dims: dims}
			if rd == rank {
				p.self = &x
				continue
			}
			x.buf = make([]float64, dims.Count())
			p.sends = append(p.sends, x)
		}
	}
	if rank < dst.NumProcs() {
		dc := dst.Procs.Coord(rank)
		p.dstOff = dst.Offset(dc)
		ddim := dst.LocalDims(dc)
		for rs := 0; rs < src.NumProcs(); rs++ {
			if rs == rank {
				continue // covered by the direct self copy
			}
			sc := src.Procs.Coord(rs)
			lo, dims, ok := IntersectBox(src.Offset(sc), src.LocalDims(sc), p.dstOff, ddim)
			if !ok {
				continue
			}
			p.recvs = append(p.recvs, xfer{peer: rs, lo: lo, dims: dims, buf: make([]float64, dims.Count())})
		}
	}
	return p
}

// copyBox moves the interior region [lo, lo+dims) of the grid (local
// coordinates) to or from buf in x-major order.
func copyBox(g *Grid, lo topology.Coord, dims topology.Dims, buf []float64, pack bool) {
	pos := 0
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			row := g.index(lo[0]+i, lo[1]+j, lo[2])
			if pack {
				copy(buf[pos:pos+dims[2]], g.data[row:row+dims[2]])
			} else {
				copy(g.data[row:row+dims[2]], buf[pos:pos+dims[2]])
			}
			pos += dims[2]
		}
	}
}

// copyRows copies the interior box [srcLo, srcLo+dims) of src onto
// [dstLo, dstLo+dims) of dst (local coordinates of each), row by row
// with no buffer in between.
func copyRows(dst *Grid, dstLo topology.Coord, src *Grid, srcLo topology.Coord, dims topology.Dims) {
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			d := dst.index(dstLo[0]+i, dstLo[1]+j, dstLo[2])
			s := src.index(srcLo[0]+i, srcLo[1]+j, srcLo[2])
			copy(dst.data[d:d+dims[2]], src.data[s:s+dims[2]])
		}
	}
}

// localBox converts a global box corner to coordinates local to the
// sub-domain at offset off.
func localBox(lo, off topology.Coord) topology.Coord {
	return topology.Coord{lo[0] - off[0], lo[1] - off[1], lo[2] - off[2]}
}

// Run executes the plan: srcGrid's interior (this rank's src-layout
// sub-domain, nil when the rank owns none) is moved into dstGrid (the
// dst-layout sub-domain, nil when the rank owns none). All sends are
// eager, then receives complete in peer order, so the exchange cannot
// deadlock; ranks whose only part is receiving block until their data
// arrives. Both endpoints of a communicator must run their shared plans
// in the same order for a given tag (FIFO matching pairs the k-th send
// with the k-th receive).
func (p *RedistPlan) Run(c Comm, srcGrid, dstGrid *Grid, tag int) {
	if p.rank != c.Rank() {
		panic(fmt.Sprintf("grid: redistribution plan for rank %d run on rank %d", p.rank, c.Rank()))
	}
	if p.rank < p.src.NumProcs() && srcGrid == nil {
		panic("grid: redistribute missing source grid")
	}
	if p.rank < p.dst.NumProcs() && dstGrid == nil {
		panic("grid: redistribute missing destination grid")
	}
	for i := range p.sends {
		s := &p.sends[i]
		copyBox(srcGrid, localBox(s.lo, p.srcOff), s.dims, s.buf, true)
		c.Send(s.peer, tag, s.buf)
	}
	if p.self != nil {
		copyRows(dstGrid, localBox(p.self.lo, p.dstOff), srcGrid, localBox(p.self.lo, p.srcOff), p.self.dims)
	}
	for i := range p.recvs {
		r := &p.recvs[i]
		c.Recv(r.peer, tag, r.buf)
		copyBox(dstGrid, localBox(r.lo, p.dstOff), r.dims, r.buf, false)
	}
}
