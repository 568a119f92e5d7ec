package topology

import "fmt"

// Rank-to-node mappings. A Blue Gene/P job does not choose which torus
// node each MPI rank lands on — the mapping file does, and the paper's
// section V shows halo traffic is only all-nearest-neighbour when the
// Cartesian process grid is embedded in the torus. These helpers produce
// the rank -> node-coordinate tables internal/mpi's network model prices
// hop distances from.

// Mapping selects a strategy for placing the ranks of a process grid
// onto the nodes of a Network.
type Mapping int

const (
	// MapLinear fills the node grid in row-major rank order (the
	// default XYZT-style mapping): rank r lands on coordinate
	// net.Dims.Coord(r mod nodes). Process-grid neighbours along the
	// fastest axis stay adjacent; the slower axes stride across the
	// machine.
	MapLinear Mapping = iota
	// MapCart embeds the Cartesian process grid axis-by-axis: a rank's
	// process coordinate, folded modulo the node grid extent per axis,
	// becomes its node coordinate. Process-grid neighbours stay torus
	// neighbours (or co-located on one node, using shared memory), so
	// halo traffic is all single-hop — what a tuned BG/P mapping file
	// achieves.
	MapCart
	// MapShuffle scatters ranks over the nodes with a deterministic
	// pseudo-random permutation — the worst-case placement that turns
	// nearest-neighbour halo exchanges into long-haul torus traffic.
	// The benchmarks use it as the "how bad can mapping get" bound.
	MapShuffle
)

// String names the mapping the way the -map flag spells it.
func (m Mapping) String() string {
	switch m {
	case MapLinear:
		return "linear"
	case MapCart:
		return "cart"
	case MapShuffle:
		return "shuffle"
	}
	return fmt.Sprintf("Mapping(%d)", int(m))
}

// MapGrid places the ranks of a row-major process grid onto node
// coordinates of the network and returns the rank-indexed coordinate
// table. More ranks than nodes fold onto shared nodes (virtual-node
// mode); the fold is per-axis for MapCart and modulo the node count for
// the other mappings.
func MapGrid(proc Dims, net Network, m Mapping) []Coord {
	n := proc.Count()
	nodes := net.Dims.Count()
	coords := make([]Coord, n)
	switch m {
	case MapCart:
		for r := 0; r < n; r++ {
			pc := proc.Coord(r)
			coords[r] = Coord{pc[0] % net.Dims[0], pc[1] % net.Dims[1], pc[2] % net.Dims[2]}
		}
	case MapShuffle:
		slots := shuffledSlots(nodes, 0x9e3779b97f4a7c15)
		for r := 0; r < n; r++ {
			coords[r] = net.Dims.Coord(slots[r%nodes])
		}
	default:
		for r := 0; r < n; r++ {
			coords[r] = net.Dims.Coord(r % nodes)
		}
	}
	return coords
}

// MapBands places a bands x domain layout (world rank r = band group
// r/proc.Count(), domain rank r%proc.Count(), matching internal/gpaw)
// onto the network: each band group gets a contiguous slab of the node
// grid along its longest axis, and the domain grid maps into the slab
// with the given strategy. MapShuffle ignores the slab structure and
// scatters globally.
func MapBands(bands int, proc Dims, net Network, m Mapping) []Coord {
	if bands < 1 {
		bands = 1
	}
	nproc := proc.Count()
	switch {
	case bands == 1:
		return MapGrid(proc, net, m)
	case m != MapCart:
		// Linear fill and global shuffle ignore the slab structure; the
		// band-major world rank order makes linear fills slab-shaped on
		// its own.
		return MapGrid(Dims{1, bands, nproc}, net, m)
	}
	// MapCart: slab the longest network axis across band groups.
	axis := 0
	for d := 1; d < 3; d++ {
		if net.Dims[d] > net.Dims[axis] {
			axis = d
		}
	}
	coords := make([]Coord, bands*nproc)
	for b := 0; b < bands; b++ {
		start, length := Split(net.Dims[axis], bands, b)
		if length < 1 {
			// More band groups than nodes along the axis: groups share
			// slabs of width one.
			start, length = b%net.Dims[axis], 1
		}
		sub := net.Dims
		sub[axis] = length
		local := MapGrid(proc, Network{Dims: sub, Torus: net.Torus}, m)
		for dr, c := range local {
			c[axis] += start
			coords[b*nproc+dr] = c
		}
	}
	return coords
}

// mix64 is a SplitMix64-style finalizer: a fixed bijective hash used to
// derive the deterministic shuffle (no math/rand, so the table is
// identical on every run and platform).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// shuffledSlots returns a deterministic permutation of 0..n-1
// (Fisher-Yates driven by the mix64 stream).
func shuffledSlots(n int, seed uint64) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	x := seed
	for i := n - 1; i > 0; i-- {
		x = mix64(x + uint64(i))
		j := int(x % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
	return s
}
