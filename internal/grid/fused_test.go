package grid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/detsum"
)

func filledGrid(nx, ny, nz, halo int) *Grid {
	g := New(nx, ny, nz, halo)
	g.FillFunc(func(i, j, k int) float64 {
		return math.Sin(0.3*float64(i)) + 0.5*math.Cos(0.7*float64(j)-0.2*float64(k)) + float64((i+j+k)%5)
	})
	return g
}

// TestPackFaceUnpackHaloRoundTrip verifies the transport identity the
// distributed halo exchange relies on: packing a face slab of one grid
// and unpacking it into the opposite halo of a neighbouring grid must
// install exactly the packed surface values, for every dimension, side
// and thickness.
func TestPackFaceUnpackHaloRoundTrip(t *testing.T) {
	src := filledGrid(6, 5, 7, 2)
	for dim := 0; dim < 3; dim++ {
		for _, side := range []Side{Low, High} {
			for thick := 1; thick <= 2; thick++ {
				buf := make([]float64, src.FaceLen(dim, thick))
				n := src.PackFace(dim, side, thick, buf)
				if n != len(buf) {
					t.Fatalf("dim %d side %v t %d: packed %d, want %d", dim, side, thick, n, len(buf))
				}
				dst := filledGrid(6, 5, 7, 2)
				// The neighbour receives my `side` face into its
				// opposite halo.
				m := dst.UnpackHalo(dim, side.Opposite(), thick, buf)
				if m != n {
					t.Fatalf("dim %d side %v t %d: unpacked %d, want %d", dim, side, thick, m, n)
				}
				// Every halo cell must equal the matching interior
				// surface cell of the sender under a periodic shift.
				ext := []int{src.Nx, src.Ny, src.Nz}[dim]
				for a := 0; a < thick; a++ {
					srcIdx, dstIdx := a, ext+a // Low face -> High halo
					if side == High {
						srcIdx, dstIdx = ext-thick+a, -thick+a
					}
					checkSlabEqual(t, src, dst, dim, srcIdx, dstIdx)
				}
			}
		}
	}
}

// checkSlabEqual compares src's interior plane srcIdx of dimension dim
// with dst's (halo) plane dstIdx over the full extent of the other two
// dimensions.
func checkSlabEqual(t *testing.T, src, dst *Grid, dim, srcIdx, dstIdx int) {
	t.Helper()
	idx := func(g *Grid, a, b, c int) float64 {
		switch dim {
		case 0:
			return g.At(a, b, c)
		case 1:
			return g.At(b, a, c)
		default:
			return g.At(b, c, a)
		}
	}
	var e1, e2 int
	switch dim {
	case 0:
		e1, e2 = src.Ny, src.Nz
	case 1:
		e1, e2 = src.Nx, src.Nz
	default:
		e1, e2 = src.Nx, src.Ny
	}
	for b := 0; b < e1; b++ {
		for c := 0; c < e2; c++ {
			want := idx(src, srcIdx, b, c)
			got := idx(dst, dstIdx, b, c)
			if want != got {
				t.Fatalf("dim %d: halo plane %d (%d,%d) = %g, want %g", dim, dstIdx, b, c, got, want)
			}
		}
	}
}

// TestPackUnpackSelfIdentity: packing a face and unpacking it into the
// same grid's opposite halo is exactly the single-process periodic wrap
// for that face (corners aside).
func TestPackUnpackSelfIdentity(t *testing.T) {
	g := filledGrid(6, 6, 6, 2)
	ref := g.Clone()
	ref.FillHalosPeriodic()
	buf := make([]float64, g.FaceLen(0, 2))
	g.PackFace(0, Low, 2, buf)
	g.UnpackHalo(0, High, 2, buf)
	for a := 0; a < 2; a++ {
		for j := 0; j < g.Ny; j++ {
			for k := 0; k < g.Nz; k++ {
				if got, want := g.At(g.Nx+a, j, k), ref.At(g.Nx+a, j, k); got != want {
					t.Fatalf("halo (%d,%d,%d) = %g, want %g", g.Nx+a, j, k, got, want)
				}
			}
		}
	}
}

// TestPackFacesMatchOneSided: the two-sided pass over a dimension packs
// and unpacks exactly what two one-sided calls do, and two passes with
// one side nil compose to the two-sided one — for every dimension,
// every thickness up to the halo, and thin extents (Nz == t, Nz == 1).
func TestPackFacesMatchOneSided(t *testing.T) {
	for _, e := range [][4]int{{5, 4, 6, 3}, {4, 3, 2, 2}, {3, 4, 1, 2}} {
		nx, ny, nz, h := e[0], e[1], e[2], e[3]
		src := filledGrid(nx, ny, nz, h)
		for dim := 0; dim < 3; dim++ {
			for thick := 1; thick <= h && thick <= src.extent(dim); thick++ {
				name := func(what string) string {
					return fmt.Sprintf("%dx%dx%d H=%d dim %d t %d: %s", nx, ny, nz, h, dim, thick, what)
				}
				n := src.FaceLen(dim, thick)
				low, high := make([]float64, n), make([]float64, n)
				if got := src.PackFaces(dim, thick, low, high); got != n {
					t.Fatalf("%s = %d, want %d", name("PackFaces"), got, n)
				}
				wantLow, wantHigh := make([]float64, n), make([]float64, n)
				src.PackFace(dim, Low, thick, wantLow)
				src.PackFace(dim, High, thick, wantHigh)
				sameBits(t, name("packed Low"), low, wantLow)
				sameBits(t, name("packed High"), high, wantHigh)
				onlyHigh := make([]float64, n)
				src.PackFaces(dim, thick, nil, onlyHigh)
				sameBits(t, name("packed High alone"), onlyHigh, high)

				two, one, halves := New(nx, ny, nz, h), New(nx, ny, nz, h), New(nx, ny, nz, h)
				if got := two.UnpackHalos(dim, thick, low, high); got != n {
					t.Fatalf("%s = %d, want %d", name("UnpackHalos"), got, n)
				}
				one.UnpackHalo(dim, Low, thick, low)
				one.UnpackHalo(dim, High, thick, high)
				halves.UnpackHalos(dim, thick, low, nil)
				halves.UnpackHalos(dim, thick, nil, high)
				sameBits(t, name("unpacked vs one-sided"), two.data, one.data)
				sameBits(t, name("unpacked vs halves"), two.data, halves.data)
			}
		}
	}
}

// TestWrapHalosMatchFillHalosPeriodic: the grid-to-grid wrap of one
// dimension installs exactly FillHalosPeriodic's values in that
// dimension's face halos, t deep, and touches no other cell: not the
// interior, not the corners, not the halo layers beyond t — for every
// dimension, t < H, t == H and extent == t (Nz == t == H, Nz == t < H).
// It allocates nothing, and a slab thicker than the extent or the halo
// panics as PackFaces and UnpackHalos do.
func TestWrapHalosMatchFillHalosPeriodic(t *testing.T) {
	for _, e := range [][4]int{{5, 4, 6, 3}, {4, 3, 2, 2}, {3, 4, 1, 2}} {
		nx, ny, nz, h := e[0], e[1], e[2], e[3]
		ref := filledGrid(nx, ny, nz, h)
		ref.FillHalosPeriodic()
		ext := [3]int{nx, ny, nz}
		for dim := 0; dim < 3; dim++ {
			for thick := 1; thick <= h && thick <= ext[dim]; thick++ {
				g := filledGrid(nx, ny, nz, h)
				eachCell(ext, h, func(c [3]int) {
					if !inside(c, ext, -1) {
						g.Set(c[0], c[1], c[2], -1) // a halo the wrap misses shows
					}
				})
				before := g.Clone()
				g.WrapHalos(dim, thick)
				eachCell(ext, h, func(c [3]int) {
					want := before.At(c[0], c[1], c[2])
					if faceHalo(c, ext, dim, thick) {
						want = ref.At(c[0], c[1], c[2])
					}
					if got := g.At(c[0], c[1], c[2]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%dx%dx%d H=%d dim %d t %d: cell %v = %g, want %g", nx, ny, nz, h, dim, thick, c, got, want)
					}
				})
				if allocs := testing.AllocsPerRun(10, func() { g.WrapHalos(dim, thick) }); allocs != 0 {
					t.Errorf("%dx%dx%d dim %d t %d: WrapHalos allocates %.1f objects", nx, ny, nz, dim, thick, allocs)
				}
			}
		}
	}
	for _, bad := range []struct{ dim, t int }{{2, 2}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WrapHalos(%d, %d) on 4x4x1 H=2 did not panic", bad.dim, bad.t)
				}
			}()
			New(4, 4, 1, 2).WrapHalos(bad.dim, bad.t)
		}()
	}
}

// eachCell calls f on every cell, halos included, of a grid with
// interior extents ext and halo h.
func eachCell(ext [3]int, h int, f func(c [3]int)) {
	for i := -h; i < ext[0]+h; i++ {
		for j := -h; j < ext[1]+h; j++ {
			for k := -h; k < ext[2]+h; k++ {
				f([3]int{i, j, k})
			}
		}
	}
}

// inside reports whether cell c lies in the interior in every dimension
// other than skip (pass -1 to check all three).
func inside(c, ext [3]int, skip int) bool {
	for d := 0; d < 3; d++ {
		if d != skip && (c[d] < 0 || c[d] >= ext[d]) {
			return false
		}
	}
	return true
}

// faceHalo reports whether cell c lies in dimension dim's face halos,
// at most t deep.
func faceHalo(c, ext [3]int, dim, t int) bool {
	return inside(c, ext, dim) && ((c[dim] >= -t && c[dim] < 0) || (c[dim] >= ext[dim] && c[dim] < ext[dim]+t))
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %g, want %g", what, i, got[i], want[i])
		}
	}
}

func TestAxpyScaleMatchesChain(t *testing.T) {
	g := filledGrid(7, 6, 5, 1)
	x := filledGrid(7, 6, 5, 2)
	x.Scale(0.5)
	want := g.Clone()
	want.Scale(-0.3)
	want.Axpy(1.7, x)
	got := g.Clone()
	got.AxpyScale(1.7, x, -0.3)
	if d := want.MaxAbsDiff(got); d > 1e-15 {
		t.Fatalf("AxpyScale deviates from Scale+Axpy by %g", d)
	}
}

func TestAxpyDotMatchesChain(t *testing.T) {
	g := filledGrid(7, 6, 5, 1)
	x := filledGrid(7, 6, 5, 1)
	x.Scale(0.25)
	want := g.Clone()
	want.Axpy(-0.6, x)
	wantSq := want.Dot(want)
	got := g.Clone()
	sq := got.AxpyDot(-0.6, x)
	if d := want.MaxAbsDiff(got); d != 0 {
		t.Fatalf("AxpyDot grid deviates by %g", d)
	}
	if math.Abs(sq-wantSq) > 1e-12*math.Abs(wantSq) {
		t.Fatalf("AxpyDot sumsq %g, want %g", sq, wantSq)
	}
}

func TestAddScalarAndAccumSquared(t *testing.T) {
	g := filledGrid(6, 5, 4, 1)
	want := g.Clone()
	want.FillFunc(func(i, j, k int) float64 { return g.At(i, j, k) + 2.5 })
	got := g.Clone()
	got.AddScalar(2.5)
	if d := want.MaxAbsDiff(got); d != 0 {
		t.Fatal("AddScalar deviates from FillFunc chain")
	}

	psi := filledGrid(6, 5, 4, 1)
	want = g.Clone()
	want.FillFunc(func(i, j, k int) float64 {
		v := psi.At(i, j, k)
		return g.At(i, j, k) + 1.5*v*v
	})
	got = g.Clone()
	got.AccumSquared(1.5, psi)
	if d := want.MaxAbsDiff(got); d != 0 {
		t.Fatal("AccumSquared deviates from FillFunc chain")
	}
}

// TestBlasFormsAllocationFree holds every whole-grid form the solvers
// call to zero allocations per call: the SCF loop's and the Hartree
// solve's one-grid passes run on their caller, and a closure or a
// partial accumulator that escaped would show here.
func TestBlasFormsAllocationFree(t *testing.T) {
	g := filledGrid(12, 6, 6, 2)
	x := filledGrid(12, 6, 6, 1)
	var acc detsum.Acc
	forms := []struct {
		name string
		run  func()
	}{
		{"SumAcc", func() { g.SumAcc(&acc) }},
		{"DotAcc", func() { g.DotAcc(x, &acc) }},
		{"AxpyDotAcc", func() { g.AxpyDotAcc(1e-3, x, &acc) }},
		{"Axpy", func() { g.Axpy(1e-3, x) }},
		{"AxpyScale", func() { g.AxpyScale(1e-3, x, 0.5) }},
		{"Scale", func() { g.Scale(2) }},
		{"AddScalar", func() { g.AddScalar(0.5) }},
		{"CopyInteriorFrom", func() { g.CopyInteriorFrom(x) }},
	}
	for _, f := range forms {
		if n := testing.AllocsPerRun(20, f.run); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", f.name, n)
		}
	}
}

func TestTrafficCounter(t *testing.T) {
	g := New(4, 4, 4, 1)
	x := New(4, 4, 4, 1)
	pts := int64(g.Points())
	ResetTraffic()
	g.Fill(1)
	if got := TrafficPoints(); got != pts {
		t.Fatalf("Fill traffic = %d, want %d", got, pts)
	}
	ResetTraffic()
	g.Axpy(2, x)
	if got := TrafficPoints(); got != 3*pts {
		t.Fatalf("Axpy traffic = %d, want %d", got, 3*pts)
	}
	ResetTraffic()
	g.AxpyScale(1, x, 2)
	if got := TrafficPoints(); got != 3*pts {
		t.Fatalf("AxpyScale traffic = %d, want %d", got, 3*pts)
	}
	ResetTraffic()
	_ = g.Dot(x)
	if got := TrafficPoints(); got != 2*pts {
		t.Fatalf("Dot traffic = %d, want %d", got, 2*pts)
	}
	ResetTraffic()
}
