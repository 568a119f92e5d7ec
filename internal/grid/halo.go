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
	if side == Low {
		return g.PackFaces(dim, t, buf, nil)
	}
	return g.PackFaces(dim, t, nil, buf)
}

// UnpackHalo copies buf into the halo slab of thickness t on the given
// face. This installs surface points received from a neighbour.
func (g *Grid) UnpackHalo(dim int, side Side, t int, buf []float64) int {
	if side == Low {
		return g.UnpackHalos(dim, t, buf, nil)
	}
	return g.UnpackHalos(dim, t, nil, buf)
}

// PackFaces is PackFace for both faces of dimension dim in one walk over
// the grid: the Low slab goes to low and the High slab to high, a nil
// side is skipped. It returns the number of values written per side.
//
//gpaw:hotpath
func (g *Grid) PackFaces(dim, t int, low, high []float64) int {
	g.checkFaces(dim, t)
	return g.moveFaces(dim, t, 0, g.extent(dim)-t, low, high, toBuffers)
}

// UnpackHalos is UnpackHalo for both faces of dimension dim in one walk
// over the grid: low fills the Low halo and high the High halo, a nil
// side is skipped. It returns the number of values read per side.
//
//gpaw:hotpath
func (g *Grid) UnpackHalos(dim, t int, low, high []float64) int {
	g.checkHalos(t)
	return g.moveFaces(dim, t, -t, g.extent(dim), low, high, fromBuffers)
}

// WrapHalos fills both halos of thickness t of dimension dim from the
// grid's own opposite interior slabs, each spanning the interior of the
// other two dimensions: the Low halo from the High face, the High halo
// from the Low face. It is the exchange of a periodic dimension the
// process grid does not divide — PackFaces and UnpackHalos with the
// buffers crossed — as one grid-to-grid copy per face.
//
//gpaw:hotpath
func (g *Grid) WrapHalos(dim, t int) {
	g.checkFaces(dim, t)
	g.checkHalos(t)
	g.moveFaces(dim, t, -t, g.extent(dim), nil, nil, wrap)
}

// checkFaces panics unless the interior of dimension dim is at least t
// thick.
func (g *Grid) checkFaces(dim, t int) {
	if n := g.extent(dim); t > n {
		panic(fmt.Sprintf("grid: face thickness %d exceeds extent %d", t, n))
	}
}

// checkHalos panics unless the halo is at least t thick.
func (g *Grid) checkHalos(t int) {
	if t > g.H {
		panic(fmt.Sprintf("grid: face thickness %d exceeds halo %d", t, g.H))
	}
}

// faceMove is the direction in which moveFaces moves its two slabs.
type faceMove int

const (
	toBuffers   faceMove = iota // grid slabs to the low/high buffers
	fromBuffers                 // low/high buffers to the grid slabs
	wrap                        // each halo slab from the opposite interior slab
)

// moveFaces moves the slabs of thickness t at indices lo and hi of
// dimension dim, each spanning the interior of the other two, between
// the grid and low/high, skipping a nil side. With wrap the buffers are
// unused and the slabs are halos (lo = -t, hi = extent): each row is
// copied from the grid row one extent further in, so the Low halo takes
// the High face and the High halo the Low face. Returns the number of
// values moved per side.
//
// Exchanging dimensions serially (x, then y, then z) with interior-only
// slabs leaves grid corners unfilled; the distributed engine in
// internal/core fills corners the same way GPAW does — the stencil never
// reads corner halos, because each axis term only reaches through faces.
func (g *Grid) moveFaces(dim, t, lo, hi int, low, high []float64, mv faceMove) int {
	need := g.FaceLen(dim, t)
	if (low != nil && len(low) < need) || (high != nil && len(high) < need) {
		panic(fmt.Sprintf("grid: buffer lens %d, %d < slab size %d", len(low), len(high), need))
	}
	// A slab is nx x ny rows of n contiguous values, row (a, b) starting
	// at base + a*sx + b*sy; the High slab sits shift values further on.
	// A wrapped Low halo row copies the row span values on, a wrapped
	// High halo row the row span values back.
	nx, ny, n := g.Nx, g.Ny, g.Nz
	var base, shift, span int
	switch dim {
	case 0:
		nx, base, shift, span = t, g.index(lo, 0, 0), (hi-lo)*g.sx, g.Nx*g.sx
	case 1:
		ny, base, shift, span = t, g.index(0, lo, 0), (hi-lo)*g.sy, g.Ny*g.sy
	default:
		n, base, shift, span = t, g.index(0, 0, lo), hi-lo, g.Nz
	}
	short, pack := dim == 2, mv == toBuffers
	pos := 0
	for a := 0; a < nx; a++ {
		for b := 0; b < ny; b++ {
			row := base + a*g.sx + b*g.sy
			if mv == wrap {
				moveRow(g.data[row+span:row+span+n], g.data[row:], false, short)
				up := row + shift - span
				moveRow(g.data[up:up+n], g.data[row+shift:], false, short)
			} else {
				if low != nil {
					moveRow(low[pos:pos+n], g.data[row:], pack, short)
				}
				if high != nil {
					moveRow(high[pos:pos+n], g.data[row+shift:], pack, short)
				}
			}
			pos += n
		}
	}
	return pos
}

// moveRow moves len(f) values between f and the start of the grid row
// d: f = d when pack, else d = f. f is a face buffer's row, or with a
// wrap the grid row the halo row d copies. A short row (dimension 2's,
// only the slab's thickness long) moves in an element loop, where a
// memmove call would cost more than the move; the full z-rows of the
// other dimensions copy.
func moveRow(f, d []float64, pack, short bool) {
	d = d[:len(f)]
	// bce:begin
	switch {
	case !short && pack:
		copy(f, d)
	case !short:
		copy(d, f)
	case pack:
		for k := range f {
			f[k] = d[k]
		}
	default:
		for k := range d {
			d[k] = f[k]
		}
	}
	// bce:end
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
