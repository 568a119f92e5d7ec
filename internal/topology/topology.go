// Package topology models the geometry used throughout the reproduction:
// 3-D torus and mesh interconnects (Blue Gene/P style), Cartesian
// process grids, dimension-ordered routing distances and first hops, and the
// surface-minimizing 3-D domain decompositions GPAW applies to its
// real-space grids.
package topology

import (
	"fmt"
	"math"
)

// Coord is an (x, y, z) coordinate in a 3-D process or node grid.
type Coord [3]int

// Dims holds the extent of a 3-D grid of processes or nodes.
type Dims [3]int

// Count returns the total number of points in the grid.
func (d Dims) Count() int { return d[0] * d[1] * d[2] }

// String renders dims as "XxYxZ".
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]) }

// Rank converts a coordinate to a linear rank in row-major (x slowest)
// order, matching MPI_Cart_create's default ordering.
func (d Dims) Rank(c Coord) int {
	return (c[0]*d[1]+c[1])*d[2] + c[2]
}

// Coord converts a linear rank back to a coordinate.
func (d Dims) Coord(rank int) Coord {
	z := rank % d[2]
	rank /= d[2]
	y := rank % d[1]
	x := rank / d[1]
	return Coord{x, y, z}
}

// Valid reports whether c lies inside the grid.
func (d Dims) Valid(c Coord) bool {
	for i := 0; i < 3; i++ {
		if c[i] < 0 || c[i] >= d[i] {
			return false
		}
	}
	return true
}

// Network is a 3-D interconnect: a torus (wrap links present in every
// dimension) or a mesh (no wrap links). Blue Gene/P partitions smaller
// than 512 nodes can only form meshes; 512 nodes and above form tori.
type Network struct {
	Dims  Dims
	Torus bool
}

// TorusThresholdNodes is the smallest Blue Gene/P partition that forms a
// torus; smaller partitions are meshes.
const TorusThresholdNodes = 512

// NewNetwork builds a network of the given shape. torus selects wrap
// links.
func NewNetwork(d Dims, torus bool) Network { return Network{Dims: d, Torus: torus} }

// PartitionFor returns the Blue Gene/P partition used for n nodes: a
// near-cubic shape, wired as a torus when n >= TorusThresholdNodes.
// It panics if n < 1.
func PartitionFor(n int) Network {
	if n < 1 {
		panic(fmt.Sprintf("topology: partition of %d nodes", n))
	}
	return Network{Dims: BalancedDims(n), Torus: n >= TorusThresholdNodes}
}

// Neighbor returns the coordinate one step from c along dimension dim in
// direction dir (+1 or -1), and whether that step used a wrap-around
// link. In a mesh, stepping off the edge returns ok=false.
func (n Network) Neighbor(c Coord, dim, dir int) (nb Coord, wrapped, ok bool) {
	nb = c
	nb[dim] += dir
	if nb[dim] < 0 || nb[dim] >= n.Dims[dim] {
		if !n.Torus {
			return nb, false, false
		}
		nb[dim] = (nb[dim] + n.Dims[dim]) % n.Dims[dim]
		return nb, true, true
	}
	return nb, false, true
}

// Hops returns the dimension-ordered routing distance between a and b:
// the sum per dimension of the shortest directed distance (using wrap
// links when the network is a torus).
func (n Network) Hops(a, b Coord) int {
	total := 0
	for d := 0; d < 3; d++ {
		dist := a[d] - b[d]
		if dist < 0 {
			dist = -dist
		}
		if n.Torus {
			if w := n.Dims[d] - dist; w < dist {
				dist = w
			}
		}
		total += dist
	}
	return total
}

// FirstHop returns the outgoing link a dimension-ordered route from a to
// b leaves on: the first dimension in which the coordinates differ, and
// side 1 for the positive direction or 0 for the negative one. A torus
// takes the shorter way around, the positive one on a tie; a mesh has
// only the direct way. Equal coordinates return (0, 0).
func (n Network) FirstHop(a, b Coord) (dim, side int) {
	for d := 0; d < 3; d++ {
		delta := b[d] - a[d]
		if delta == 0 {
			continue
		}
		up := delta > 0
		if n.Torus {
			steps := (delta + n.Dims[d]) % n.Dims[d] // hops going the positive way
			up = 2*steps <= n.Dims[d]
		}
		if up {
			return d, 1
		}
		return d, 0
	}
	return 0, 0
}

// WrapHops returns the hop count a periodic-boundary message must travel
// between logical neighbours at opposite ends of dimension d. On a torus
// it is 1 (the wrap link); on a mesh the message crosses the whole
// dimension: Dims[d]-1 hops.
func (n Network) WrapHops(d int) int {
	if n.Torus || n.Dims[d] <= 1 {
		return 1
	}
	return n.Dims[d] - 1
}

// BalancedDims factors n into the most cubic three dimensions: the
// DecomposeGrid split of a unit cube, whose sub-domain surface is
// proportional to the sum of the dims. Used for BGP partition shapes.
func BalancedDims(n int) Dims { return DecomposeGrid(n, Dims{1, 1, 1}) }

// DecomposeGrid factors p processes into a 3-D process grid that
// minimizes the aggregate halo surface for a global grid of extent g.
// This mirrors GPAW's default domain decomposition: the grid is divided
// into quadrilaterals and, absent a user-supplied layout, the aggregated
// surface of the sub-domains is minimized.
//
// The returned dims always multiply to p. Process counts that cannot
// divide the grid evenly are still allowed; sub-domain sizes then differ
// by at most one point per dimension (see Split).
func DecomposeGrid(p int, g Dims) Dims {
	if p < 1 {
		panic(fmt.Sprintf("topology: decompose over %d processes", p))
	}
	best := Dims{p, 1, 1}
	bestSurface := math.MaxFloat64
	for x := 1; x <= p; x++ {
		if p%x != 0 {
			continue
		}
		rest := p / x
		for y := 1; y <= rest; y++ {
			if rest%y != 0 {
				continue
			}
			z := rest / y
			sx := float64(g[0]) / float64(x)
			sy := float64(g[1]) / float64(y)
			sz := float64(g[2]) / float64(z)
			// Aggregate outward surface of one sub-domain; the total over
			// all sub-domains is p times this, so minimizing per-domain
			// surface minimizes the aggregate. Each product is rounded
			// before it is added, so no target's fused multiply-add moves
			// a partition shape or a recovery layout.
			surface := 2 * (float64(sx*sy) + float64(sy*sz) + float64(sx*sz))
			if surface < bestSurface-1e-12 {
				bestSurface = surface
				best = Dims{x, y, z}
			}
		}
	}
	return best
}

// Split divides extent n into parts pieces as evenly as possible and
// returns the start offset and length of piece i. The first n%parts
// pieces are one element longer.
func Split(n, parts, i int) (start, length int) {
	base := n / parts
	rem := n % parts
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

// SubdomainSize returns the local sub-grid extents for the process at
// coordinate c in a process grid of shape pd decomposing global grid g.
func SubdomainSize(g Dims, pd Dims, c Coord) Dims {
	var out Dims
	for d := 0; d < 3; d++ {
		_, out[d] = Split(g[d], pd[d], c[d])
	}
	return out
}

// HaloBytes returns the number of bytes a sub-domain of extent s sends
// per exchanged grid in one direction of dimension d, for halo thickness
// t and element size elem: thickness * (face area) * elem.
func HaloBytes(s Dims, d, t, elem int) int64 {
	var face int
	switch d {
	case 0:
		face = s[1] * s[2]
	case 1:
		face = s[0] * s[2]
	case 2:
		face = s[0] * s[1]
	default:
		panic("topology: bad dimension")
	}
	return int64(t) * int64(face) * int64(elem)
}

// TotalHaloBytes returns the bytes one sub-domain sends for a full
// 3-dimensional, both-directions halo exchange of a single grid.
func TotalHaloBytes(s Dims, t, elem int) int64 {
	var total int64
	for d := 0; d < 3; d++ {
		total += 2 * HaloBytes(s, d, t, elem)
	}
	return total
}
