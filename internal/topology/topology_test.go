package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRankCoordRoundTrip(t *testing.T) {
	d := Dims{4, 3, 5}
	seen := make(map[int]bool)
	for x := 0; x < d[0]; x++ {
		for y := 0; y < d[1]; y++ {
			for z := 0; z < d[2]; z++ {
				c := Coord{x, y, z}
				r := d.Rank(c)
				if r < 0 || r >= d.Count() {
					t.Fatalf("rank %d out of range for %v", r, c)
				}
				if seen[r] {
					t.Fatalf("rank %d assigned twice", r)
				}
				seen[r] = true
				if back := d.Coord(r); back != c {
					t.Fatalf("round trip %v -> %d -> %v", c, r, back)
				}
			}
		}
	}
	if len(seen) != d.Count() {
		t.Fatalf("rank map not a bijection: %d of %d", len(seen), d.Count())
	}
}

func TestRankCoordBijectionProperty(t *testing.T) {
	f := func(a, b, c uint8, r uint16) bool {
		d := Dims{int(a%7) + 1, int(b%7) + 1, int(c%7) + 1}
		rank := int(r) % d.Count()
		return d.Rank(d.Coord(rank)) == rank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDimsValid(t *testing.T) {
	d := Dims{2, 2, 2}
	if !d.Valid(Coord{0, 0, 0}) || !d.Valid(Coord{1, 1, 1}) {
		t.Fatal("interior coords reported invalid")
	}
	for _, c := range []Coord{{-1, 0, 0}, {2, 0, 0}, {0, 2, 0}, {0, 0, 2}} {
		if d.Valid(c) {
			t.Fatalf("out-of-range coord %v reported valid", c)
		}
	}
}

func TestDimsString(t *testing.T) {
	if s := (Dims{8, 8, 16}).String(); s != "8x8x16" {
		t.Fatalf("String = %q", s)
	}
}

func TestNeighborTorusWraps(t *testing.T) {
	n := NewNetwork(Dims{4, 4, 4}, true)
	nb, wrapped, ok := n.Neighbor(Coord{0, 0, 0}, 0, -1)
	if !ok || !wrapped || nb != (Coord{3, 0, 0}) {
		t.Fatalf("torus wrap gave %v wrapped=%v ok=%v", nb, wrapped, ok)
	}
	nb, wrapped, ok = n.Neighbor(Coord{1, 2, 3}, 2, 1)
	if !ok || !wrapped || nb != (Coord{1, 2, 0}) {
		t.Fatalf("z-wrap gave %v wrapped=%v ok=%v", nb, wrapped, ok)
	}
	nb, wrapped, ok = n.Neighbor(Coord{1, 1, 1}, 1, 1)
	if !ok || wrapped || nb != (Coord{1, 2, 1}) {
		t.Fatalf("interior step gave %v wrapped=%v", nb, wrapped)
	}
}

func TestNeighborMeshEdges(t *testing.T) {
	n := NewNetwork(Dims{4, 4, 4}, false)
	if _, _, ok := n.Neighbor(Coord{0, 0, 0}, 0, -1); ok {
		t.Fatal("mesh should have no wrap neighbour")
	}
	if _, _, ok := n.Neighbor(Coord{3, 0, 0}, 0, 1); ok {
		t.Fatal("mesh edge should have no +x neighbour")
	}
	nb, wrapped, ok := n.Neighbor(Coord{2, 0, 0}, 0, 1)
	if !ok || wrapped || nb != (Coord{3, 0, 0}) {
		t.Fatalf("interior mesh step gave %v", nb)
	}
}

func TestHopsTorusVsMesh(t *testing.T) {
	torus := NewNetwork(Dims{8, 8, 8}, true)
	mesh := NewNetwork(Dims{8, 8, 8}, false)
	a, b := Coord{0, 0, 0}, Coord{7, 0, 0}
	if h := torus.Hops(a, b); h != 1 {
		t.Fatalf("torus hops = %d, want 1 (wrap)", h)
	}
	if h := mesh.Hops(a, b); h != 7 {
		t.Fatalf("mesh hops = %d, want 7", h)
	}
	if h := torus.Hops(Coord{1, 2, 3}, Coord{1, 2, 3}); h != 0 {
		t.Fatalf("self hops = %d", h)
	}
	if h := torus.Hops(Coord{0, 0, 0}, Coord{4, 4, 4}); h != 12 {
		t.Fatalf("antipodal torus hops = %d, want 12", h)
	}
}

func TestHopsSymmetric(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz uint8, torus bool) bool {
		n := NewNetwork(Dims{8, 8, 8}, torus)
		a := Coord{int(ax % 8), int(ay % 8), int(az % 8)}
		b := Coord{int(bx % 8), int(by % 8), int(bz % 8)}
		return n.Hops(a, b) == n.Hops(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFirstHop(t *testing.T) {
	torus := NewNetwork(Dims{8, 8, 8}, true)
	mesh := NewNetwork(Dims{8, 8, 8}, false)
	cases := []struct {
		name      string
		net       Network
		a, b      Coord
		dim, side int
	}{
		{"torus direct +x", torus, Coord{1, 5, 5}, Coord{3, 0, 0}, 0, 1},
		{"torus wrap -x is shorter", torus, Coord{0, 0, 0}, Coord{7, 0, 0}, 0, 0},
		{"torus wrap +z is shorter", torus, Coord{2, 2, 7}, Coord{2, 2, 1}, 2, 1},
		{"torus tie goes positive", torus, Coord{0, 6, 0}, Coord{0, 2, 0}, 1, 1},
		{"torus tie goes positive from below", torus, Coord{0, 2, 0}, Coord{0, 6, 0}, 1, 1},
		{"mesh keeps the sign", mesh, Coord{0, 0, 0}, Coord{7, 0, 0}, 0, 1},
		{"mesh negative", mesh, Coord{0, 0, 7}, Coord{0, 0, 0}, 2, 0},
		{"x routes before y", mesh, Coord{4, 4, 4}, Coord{3, 7, 0}, 0, 0},
		{"equal coordinates", torus, Coord{3, 3, 3}, Coord{3, 3, 3}, 0, 0},
	}
	for _, c := range cases {
		if dim, side := c.net.FirstHop(c.a, c.b); dim != c.dim || side != c.side {
			t.Errorf("%s: FirstHop(%v, %v) = (%d, %d), want (%d, %d)",
				c.name, c.a, c.b, dim, side, c.dim, c.side)
		}
	}
}

func TestWrapHops(t *testing.T) {
	torus := NewNetwork(Dims{8, 8, 8}, true)
	mesh := NewNetwork(Dims{8, 4, 1}, false)
	if torus.WrapHops(0) != 1 {
		t.Fatal("torus wrap should be 1 hop")
	}
	if got := mesh.WrapHops(0); got != 7 {
		t.Fatalf("mesh wrap hops = %d, want 7", got)
	}
	if got := mesh.WrapHops(1); got != 3 {
		t.Fatalf("mesh wrap hops = %d, want 3", got)
	}
	if got := mesh.WrapHops(2); got != 1 {
		t.Fatalf("singleton dimension wrap hops = %d, want 1", got)
	}
}

func TestPartitionForBGPShapes(t *testing.T) {
	cases := []struct {
		nodes int
		torus bool
	}{
		{1, false}, {4, false}, {32, false}, {256, false},
		{512, true}, {1024, true}, {2048, true}, {4096, true},
	}
	for _, c := range cases {
		p := PartitionFor(c.nodes)
		if p.Dims.Count() != c.nodes {
			t.Fatalf("partition %d: dims %v do not multiply to node count", c.nodes, p.Dims)
		}
		if p.Torus != c.torus {
			t.Fatalf("partition %d: torus=%v, want %v", c.nodes, p.Torus, c.torus)
		}
	}
	// 512 nodes must be the cubic 8x8x8.
	if d := PartitionFor(512).Dims; d != (Dims{8, 8, 8}) {
		t.Fatalf("512-node partition = %v, want 8x8x8", d)
	}
	if d := PartitionFor(4096).Dims; d != (Dims{16, 16, 16}) {
		t.Fatalf("4096-node partition = %v, want 16x16x16", d)
	}
}

func TestPartitionForPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PartitionFor(0) did not panic")
		}
	}()
	PartitionFor(0)
}

func TestBalancedDimsIsCubicForCubes(t *testing.T) {
	for _, n := range []int{8, 64, 512, 4096} {
		d := BalancedDims(n)
		if d[0] != d[1] || d[1] != d[2] {
			t.Fatalf("BalancedDims(%d) = %v, want a cube", n, d)
		}
	}
}

func TestBalancedDimsProduct(t *testing.T) {
	f := func(n uint16) bool {
		v := int(n%4096) + 1
		return BalancedDims(v).Count() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBalancedDimsMinimizesEdgeSum holds BalancedDims, a DecomposeGrid
// split of the unit cube, to a brute-force oracle: the factor triple of
// least x+y+z, ties resolved to the first in x-then-y order.
func TestBalancedDimsMinimizesEdgeSum(t *testing.T) {
	for n := 1; n <= 4096; n++ {
		var want Dims
		best := math.MaxInt
		for x := 1; x <= n; x++ {
			if n%x != 0 {
				continue
			}
			for y := 1; y <= n/x; y++ {
				if (n/x)%y != 0 {
					continue
				}
				if z := n / x / y; x+y+z < best {
					best, want = x+y+z, Dims{x, y, z}
				}
			}
		}
		if got := BalancedDims(n); got != want {
			t.Fatalf("BalancedDims(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestDecomposeGridMinimizesSurface(t *testing.T) {
	// For a cubic grid and a cubic process count, the decomposition must
	// be cubic.
	d := DecomposeGrid(64, Dims{192, 192, 192})
	if d != (Dims{4, 4, 4}) {
		t.Fatalf("DecomposeGrid(64, cubic) = %v, want 4x4x4", d)
	}
	// For a flat grid, processes should concentrate along the long axis.
	d = DecomposeGrid(8, Dims{1024, 8, 8})
	if d != (Dims{8, 1, 1}) {
		t.Fatalf("DecomposeGrid(8, slab) = %v, want 8x1x1", d)
	}
}

func TestDecomposeGridProduct(t *testing.T) {
	f := func(p uint16) bool {
		v := int(p%2048) + 1
		return DecomposeGrid(v, Dims{144, 144, 144}).Count() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCoversExactly(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		nn := int(n%500) + 1
		pp := int(parts%32) + 1
		covered := 0
		prevEnd := 0
		for i := 0; i < pp; i++ {
			start, length := Split(nn, pp, i)
			if start != prevEnd {
				return false // gaps or overlap
			}
			if length < 0 {
				return false
			}
			prevEnd = start + length
			covered += length
		}
		return covered == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBalance(t *testing.T) {
	// Lengths differ by at most one.
	_, l0 := Split(10, 3, 0)
	_, l1 := Split(10, 3, 1)
	_, l2 := Split(10, 3, 2)
	if l0 != 4 || l1 != 3 || l2 != 3 {
		t.Fatalf("Split(10,3) lengths = %d,%d,%d", l0, l1, l2)
	}
}

func TestSubdomainSizeAndOffset(t *testing.T) {
	g := Dims{144, 144, 144}
	pd := Dims{4, 4, 4}
	s := SubdomainSize(g, pd, Coord{0, 0, 0})
	if s != (Dims{36, 36, 36}) {
		t.Fatalf("subdomain = %v, want 36^3", s)
	}
	// The sizes tile the global grid exactly.
	var vol int
	for x := 0; x < pd[0]; x++ {
		for y := 0; y < pd[1]; y++ {
			for z := 0; z < pd[2]; z++ {
				sz := SubdomainSize(g, pd, Coord{x, y, z})
				vol += sz.Count()
			}
		}
	}
	if vol != g.Count() {
		t.Fatalf("subdomains cover %d points, want %d", vol, g.Count())
	}
}

func TestHaloBytes(t *testing.T) {
	s := Dims{12, 12, 12}
	// Thickness 2, float64: one x-face = 2*12*12*8 bytes.
	if got := HaloBytes(s, 0, 2, 8); got != 2*12*12*8 {
		t.Fatalf("HaloBytes x = %d", got)
	}
	total := TotalHaloBytes(s, 2, 8)
	want := int64(6 * 2 * 12 * 12 * 8) // six faces, cubic
	if total != want {
		t.Fatalf("TotalHaloBytes = %d, want %d", total, want)
	}
}

func TestHaloBytesPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HaloBytes with dim 3 did not panic")
		}
	}()
	HaloBytes(Dims{4, 4, 4}, 3, 1, 8)
}

func TestHybridVsFlatHaloRatio(t *testing.T) {
	// The paper's core observation: decomposing each grid over nodes
	// (hybrid) instead of cores (flat) divides every grid into 4x fewer
	// pieces, reducing per-node halo traffic. For cubic decompositions
	// the per-node traffic ratio approaches 4^(1/3) ~ 1.59.
	g := Dims{192, 192, 192}
	flatProcs := 16384 // cores
	hybridProcs := 4096
	fd := DecomposeGrid(flatProcs, g)
	hd := DecomposeGrid(hybridProcs, g)
	fs := SubdomainSize(g, fd, Coord{0, 0, 0})
	hs := SubdomainSize(g, hd, Coord{0, 0, 0})
	flatPerNode := 4 * TotalHaloBytes(fs, 2, 8) // 4 ranks per node
	hybridPerNode := TotalHaloBytes(hs, 2, 8)
	ratio := float64(flatPerNode) / float64(hybridPerNode)
	if ratio < 1.4 || ratio > 2.4 {
		t.Fatalf("flat/hybrid per-node halo ratio = %.2f, want ~1.59 (4^(1/3))", ratio)
	}
}
