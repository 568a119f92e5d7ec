package grid

import "fmt"

// Side selects one of the two faces of a dimension.
type Side int

// Low is the face at index 0; High is the face at index N-1.
const (
	Low  Side = 0
	High Side = 1
)

// Opposite returns the other side.
func (s Side) Opposite() Side { return 1 - s }

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == Low {
		return "low"
	}
	return "high"
}

// FaceLen returns the number of float64 values in one face slab of
// thickness t for dimension dim: t * (face area).
func (g *Grid) FaceLen(dim, t int) int {
	switch dim {
	case 0:
		return t * g.Ny * g.Nz
	case 1:
		return t * g.Nx * g.Nz
	case 2:
		return t * g.Nx * g.Ny
	}
	panic(fmt.Sprintf("grid: bad dimension %d", dim))
}

// extent returns the interior extent of dimension dim.
func (g *Grid) extent(dim int) int {
	switch dim {
	case 0:
		return g.Nx
	case 1:
		return g.Ny
	case 2:
		return g.Nz
	}
	panic(fmt.Sprintf("grid: bad dimension %d", dim))
}

// PackFace copies the interior slab of thickness t adjacent to the given
// face into buf and returns the number of values written. This is the
// data a neighbouring process needs to fill its halo. buf must have at
// least FaceLen(dim, t) capacity.
func (g *Grid) PackFace(dim int, side Side, t int, buf []float64) int {
	if t > g.extent(dim) {
		panic(fmt.Sprintf("grid: face thickness %d exceeds extent %d", t, g.extent(dim)))
	}
	lo := 0
	if side == High {
		lo = g.extent(dim) - t
	}
	return g.copySlab(dim, lo, t, buf, true)
}

// UnpackHalo copies buf into the halo slab of thickness t on the given
// face. This installs surface points received from a neighbour.
func (g *Grid) UnpackHalo(dim int, side Side, t int, buf []float64) int {
	if t > g.H {
		panic(fmt.Sprintf("grid: face thickness %d exceeds halo %d", t, g.H))
	}
	lo := -t
	if side == High {
		lo = g.extent(dim)
	}
	return g.copySlab(dim, lo, t, buf, false)
}

// copySlab moves a slab of thickness t starting at index lo of dimension
// dim between the grid and buf. pack=true copies grid->buf, else
// buf->grid. The slab spans the full interior extent of the other two
// dimensions. Returns the number of values moved.
//
// Exchanging dimensions serially (x, then y, then z) with interior-only
// slabs leaves grid corners unfilled; the distributed engine in
// internal/core fills corners the same way GPAW does — the stencil never
// reads corner halos, because each axis term only reaches through faces.
func (g *Grid) copySlab(dim, lo, t int, buf []float64, pack bool) int {
	x0, x1 := 0, g.Nx
	y0, y1 := 0, g.Ny
	z0, z1 := 0, g.Nz
	switch dim {
	case 0:
		x0, x1 = lo, lo+t
	case 1:
		y0, y1 = lo, lo+t
	case 2:
		z0, z1 = lo, lo+t
	default:
		panic(fmt.Sprintf("grid: bad dimension %d", dim))
	}
	need := (x1 - x0) * (y1 - y0) * (z1 - z0)
	if len(buf) < need {
		panic(fmt.Sprintf("grid: buffer len %d < slab size %d", len(buf), need))
	}
	pos := 0
	for i := x0; i < x1; i++ {
		for j := y0; j < y1; j++ {
			row := g.index(i, j, z0)
			n := z1 - z0
			if pack {
				copy(buf[pos:pos+n], g.data[row:row+n])
			} else {
				copy(g.data[row:row+n], buf[pos:pos+n])
			}
			pos += n
		}
	}
	return pos
}

// FillHalosPeriodic installs periodic boundary halos from the grid's own
// interior. It is the single-process reference for what the distributed
// halo exchange achieves, and is used when a dimension is not decomposed.
//
// Dimensions are processed in order; each dimension's copy spans the
// halo-extended range of dimensions already processed, so edge and corner
// halos are filled transitively and the result is fully periodic.
func (g *Grid) FillHalosPeriodic() {
	t := g.H
	if t == 0 {
		return
	}
	n := [3]int{g.Nx, g.Ny, g.Nz}
	for dim := 0; dim < 3; dim++ {
		var lo, hi [3]int
		for d := 0; d < 3; d++ {
			if d < dim {
				lo[d], hi[d] = -t, n[d]+t // carry previously filled halos
			} else {
				lo[d], hi[d] = 0, n[d]
			}
		}
		g.wrapCopy(dim, lo, hi, 0, n[dim])    // low interior -> high halo
		g.wrapCopy(dim, lo, hi, n[dim]-t, -t) // high interior -> low halo
	}
}

// wrapCopy copies the slab [srcLo, srcLo+H) of dimension dim onto
// [dstLo, dstLo+H), with the other dimensions spanning [lo, hi).
func (g *Grid) wrapCopy(dim int, lo, hi [3]int, srcLo, dstLo int) {
	t := g.H
	switch dim {
	case 0:
		for s := 0; s < t; s++ {
			for j := lo[1]; j < hi[1]; j++ {
				src := g.index(srcLo+s, j, lo[2])
				dst := g.index(dstLo+s, j, lo[2])
				copy(g.data[dst:dst+(hi[2]-lo[2])], g.data[src:src+(hi[2]-lo[2])])
			}
		}
	case 1:
		for i := lo[0]; i < hi[0]; i++ {
			for s := 0; s < t; s++ {
				src := g.index(i, srcLo+s, lo[2])
				dst := g.index(i, dstLo+s, lo[2])
				copy(g.data[dst:dst+(hi[2]-lo[2])], g.data[src:src+(hi[2]-lo[2])])
			}
		}
	case 2:
		for i := lo[0]; i < hi[0]; i++ {
			for j := lo[1]; j < hi[1]; j++ {
				src := g.index(i, j, srcLo)
				dst := g.index(i, j, dstLo)
				copy(g.data[dst:dst+t], g.data[src:src+t])
			}
		}
	}
}

// FillHalosZero clears all halo cells (Dirichlet zero boundary).
func (g *Grid) FillHalosZero() {
	t := g.H
	if t == 0 {
		return
	}
	n := [3]int{g.Nx, g.Ny, g.Nz}
	for dim := 0; dim < 3; dim++ {
		lo := [3]int{-t, -t, -t}
		hi := [3]int{n[0] + t, n[1] + t, n[2] + t}
		g.zeroSlab(dim, lo, hi, -t)
		g.zeroSlab(dim, lo, hi, n[dim])
	}
}

// zeroSlab clears the slab [slabLo, slabLo+H) of dimension dim, other
// dimensions spanning [lo, hi). Rows are contiguous in z, so each clear
// compiles to a memclr instead of a scalar store loop.
func (g *Grid) zeroSlab(dim int, lo, hi [3]int, slabLo int) {
	t := g.H
	switch dim {
	case 0:
		for s := 0; s < t; s++ {
			for j := lo[1]; j < hi[1]; j++ {
				row := g.index(slabLo+s, j, lo[2])
				clear(g.data[row : row+hi[2]-lo[2]])
			}
		}
	case 1:
		for i := lo[0]; i < hi[0]; i++ {
			for s := 0; s < t; s++ {
				row := g.index(i, slabLo+s, lo[2])
				clear(g.data[row : row+hi[2]-lo[2]])
			}
		}
	case 2:
		for i := lo[0]; i < hi[0]; i++ {
			for j := lo[1]; j < hi[1]; j++ {
				row := g.index(i, j, slabLo)
				clear(g.data[row : row+t])
			}
		}
	}
}
