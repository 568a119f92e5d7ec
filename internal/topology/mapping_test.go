package topology

import "testing"

// TestHopsMeshOddDims: on a mesh there are no wrap links, so the
// distance along an odd dimension is the plain Manhattan distance even
// when wrapping would be shorter on a torus.
func TestHopsMeshOddDims(t *testing.T) {
	mesh := NewNetwork(Dims{5, 3, 7}, false)
	torus := NewNetwork(Dims{5, 3, 7}, true)
	cases := []struct {
		a, b                Coord
		meshHops, torusHops int
	}{
		{Coord{0, 0, 0}, Coord{4, 0, 0}, 4, 1},  // x: end-to-end, wrap=1
		{Coord{0, 0, 0}, Coord{0, 2, 0}, 2, 1},  // y: odd extent 3, wrap=1
		{Coord{0, 0, 0}, Coord{0, 0, 4}, 4, 3},  // z: 7-4=3 via wrap
		{Coord{0, 0, 0}, Coord{0, 0, 3}, 3, 3},  // z: wrap (4) longer, direct wins
		{Coord{4, 2, 6}, Coord{0, 0, 0}, 12, 3}, // corner to corner
		{Coord{2, 1, 3}, Coord{2, 1, 3}, 0, 0},
	}
	for _, c := range cases {
		if got := mesh.Hops(c.a, c.b); got != c.meshHops {
			t.Errorf("mesh Hops(%v,%v) = %d, want %d", c.a, c.b, got, c.meshHops)
		}
		if got := torus.Hops(c.a, c.b); got != c.torusHops {
			t.Errorf("torus Hops(%v,%v) = %d, want %d", c.a, c.b, got, c.torusHops)
		}
	}
}

// TestWrapHopsOddAndDegenerateDims: the periodic-neighbour hop count on
// meshes of odd and size-1 dimensions.
func TestWrapHopsOddAndDegenerateDims(t *testing.T) {
	mesh := NewNetwork(Dims{5, 1, 2}, false)
	if got := mesh.WrapHops(0); got != 4 {
		t.Errorf("mesh WrapHops(5) = %d, want 4", got)
	}
	if got := mesh.WrapHops(1); got != 1 {
		t.Errorf("mesh WrapHops(dim of size 1) = %d, want 1", got)
	}
	if got := mesh.WrapHops(2); got != 1 {
		t.Errorf("mesh WrapHops(2) = %d, want 1", got)
	}
	torus := NewNetwork(Dims{5, 1, 2}, true)
	for d := 0; d < 3; d++ {
		if got := torus.WrapHops(d); got != 1 {
			t.Errorf("torus WrapHops(dim %d) = %d, want 1", d, got)
		}
	}
}

// TestPartitionForNonPowerOfTwo: arbitrary node counts must still give
// a partition whose dims multiply to n, mesh below 512 and torus at or
// above, with a reasonably cubic shape for highly-composite counts.
func TestPartitionForNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 3, 5, 6, 7, 12, 60, 100, 243, 500, 511, 513, 900, 1000, 4096} {
		p := PartitionFor(n)
		if p.Dims.Count() != n {
			t.Errorf("PartitionFor(%d): dims %v have %d nodes", n, p.Dims, p.Dims.Count())
		}
		if want := n >= TorusThresholdNodes; p.Torus != want {
			t.Errorf("PartitionFor(%d): torus = %v, want %v", n, p.Torus, want)
		}
	}
	// Primes can only form 1 x 1 x p chains.
	if p := PartitionFor(7); p.Dims != (Dims{7, 1, 1}) && p.Dims != (Dims{1, 7, 1}) && p.Dims != (Dims{1, 1, 7}) {
		t.Errorf("PartitionFor(7) = %v, want a 7-chain", p.Dims)
	}
	// 1000 = 10^3 should be exactly cubic.
	if p := PartitionFor(1000); p.Dims != (Dims{10, 10, 10}) {
		t.Errorf("PartitionFor(1000) = %v, want 10x10x10", p.Dims)
	}
}

// TestMapGridCoversRanksWithValidCoords: every mapping must give every
// rank a coordinate inside the node grid, for shapes that match, fold
// (more ranks than nodes) and underfill the network.
func TestMapGridCoversRanksWithValidCoords(t *testing.T) {
	nets := []Network{
		NewNetwork(Dims{4, 4, 4}, true),
		NewNetwork(Dims{5, 3, 2}, false),
		NewNetwork(Dims{1, 1, 1}, false),
	}
	procs := []Dims{{4, 4, 4}, {2, 2, 2}, {8, 4, 4}, {1, 1, 7}, {3, 1, 1}}
	for _, net := range nets {
		for _, p := range procs {
			for _, m := range []Mapping{MapLinear, MapCart, MapShuffle} {
				coords := MapGrid(p, net, m)
				if len(coords) != p.Count() {
					t.Fatalf("%v on %v via %v: %d coords for %d ranks", p, net.Dims, m, len(coords), p.Count())
				}
				for r, c := range coords {
					if !net.Dims.Valid(c) {
						t.Fatalf("%v on %v via %v: rank %d mapped off-grid to %v", p, net.Dims, m, r, c)
					}
				}
			}
		}
	}
}

// TestMapCartNeighborsStayAdjacent: the defining property of the
// Cartesian embedding — when the process grid matches the node grid,
// process-grid neighbours are exactly one hop apart (and the identity
// holds coordinate-wise).
func TestMapCartNeighborsStayAdjacent(t *testing.T) {
	net := NewNetwork(Dims{4, 4, 4}, true)
	proc := Dims{4, 4, 4}
	coords := MapGrid(proc, net, MapCart)
	for r := 0; r < proc.Count(); r++ {
		pc := proc.Coord(r)
		if coords[r] != pc {
			t.Fatalf("matched-shape MapCart is not the identity: rank %d -> %v", r, coords[r])
		}
		for d := 0; d < 3; d++ {
			nb := pc
			nb[d] = (nb[d] + 1) % proc[d]
			if h := net.Hops(coords[r], coords[proc.Rank(nb)]); h != 1 {
				t.Fatalf("MapCart neighbour %v-%v is %d hops apart", pc, nb, h)
			}
		}
	}
}

// TestMapCartFoldsOntoSharedNodes: with more ranks than nodes the
// per-axis fold co-locates ranks instead of dropping them.
func TestMapCartFoldsOntoSharedNodes(t *testing.T) {
	net := NewNetwork(Dims{2, 2, 2}, false)
	coords := MapGrid(Dims{4, 2, 2}, net, MapCart)
	if coords[0] != coords[Dims{4, 2, 2}.Rank(Coord{2, 0, 0})] {
		t.Error("ranks at process x=0 and x=2 should fold onto the same node")
	}
}

// TestMapShuffleDeterministicAndSpread: the shuffle must be identical
// across calls (no seed drift — benchmarks depend on reproducibility)
// yet actually scramble locality relative to the linear fill.
func TestMapShuffleDeterministicAndSpread(t *testing.T) {
	net := NewNetwork(Dims{4, 4, 4}, true)
	proc := Dims{4, 4, 4}
	a := MapGrid(proc, net, MapShuffle)
	b := MapGrid(proc, net, MapShuffle)
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("shuffle differs across calls at rank %d", r)
		}
	}
	// Total hop distance of +z process neighbours must be strictly worse
	// than under the linear fill (where they are contiguous).
	lin := MapGrid(proc, net, MapLinear)
	hopSum := func(coords []Coord) int {
		sum := 0
		for r := 0; r < proc.Count(); r++ {
			pc := proc.Coord(r)
			nb := pc
			nb[2] = (nb[2] + 1) % proc[2]
			sum += net.Hops(coords[r], coords[proc.Rank(nb)])
		}
		return sum
	}
	if s, l := hopSum(a), hopSum(lin); s <= l {
		t.Errorf("shuffle hop sum %d not worse than linear %d", s, l)
	}
	// And it must remain a permutation of the node slots.
	seen := map[Coord]bool{}
	for _, c := range a[:64] {
		if seen[c] {
			t.Fatalf("shuffle placed two of the first 64 ranks on node %v", c)
		}
		seen[c] = true
	}
}

// TestMapBandsSlabsAndLayout: band groups get disjoint slabs under the
// Cartesian mapping, and every variant covers bands x domain ranks with
// valid coordinates.
func TestMapBandsSlabsAndLayout(t *testing.T) {
	net := NewNetwork(Dims{4, 4, 4}, true)
	proc := Dims{2, 2, 2}
	for _, m := range []Mapping{MapLinear, MapCart, MapShuffle} {
		for _, bands := range []int{1, 2, 4, 8} {
			coords := MapBands(bands, proc, net, m)
			if len(coords) != bands*proc.Count() {
				t.Fatalf("MapBands(%d,%v,%v): %d coords", bands, proc, m, len(coords))
			}
			for r, c := range coords {
				if !net.Dims.Valid(c) {
					t.Fatalf("MapBands(%d,%v,%v): rank %d off-grid at %v", bands, proc, m, r, c)
				}
			}
		}
	}
	// MapCart with 2 bands on a 4-long axis: groups live in disjoint
	// half-slabs.
	coords := MapBands(2, proc, net, MapCart)
	nproc := proc.Count()
	for r0 := 0; r0 < nproc; r0++ {
		for r1 := nproc; r1 < 2*nproc; r1++ {
			if coords[r0] == coords[r1] {
				t.Fatalf("band groups share node %v (ranks %d, %d)", coords[r0], r0, r1)
			}
		}
	}
}
