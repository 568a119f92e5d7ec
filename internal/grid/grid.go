// Package grid implements the real-space grids GPAW computes on: dense
// 3-D arrays of float64 with halo (ghost) margins sized for a
// finite-difference stencil radius, face extraction/injection for halo
// exchange, and domain-decomposition bookkeeping.
//
// A Grid stores an Nx x Ny x Nz interior surrounded by a halo of
// thickness H on every side. Interior indices run 0..N-1 per dimension;
// halo cells are addressed with indices -H..-1 and N..N+H-1. Storage is
// a single flat slice in x-major order so the innermost (z) loop is
// contiguous, matching the C kernels in GPAW.
package grid

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// Grid is a 3-D float64 array with a halo margin. Create grids with New;
// the zero value is not usable.
type Grid struct {
	Nx, Ny, Nz int // interior extents
	H          int // halo thickness on every side

	sx, sy int // strides: index = (i+H)*sx + (j+H)*sy + (k+H)
	data   []float64
}

// New allocates a zero-filled grid with the given interior extents and
// halo thickness. Extents must be positive and the halo non-negative.
func New(nx, ny, nz, halo int) *Grid {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("grid: non-positive extents %dx%dx%d", nx, ny, nz))
	}
	if halo < 0 {
		panic(fmt.Sprintf("grid: negative halo %d", halo))
	}
	tx, ty, tz := nx+2*halo, ny+2*halo, nz+2*halo
	g := &Grid{
		Nx: nx, Ny: ny, Nz: nz, H: halo,
		sy:   tz,
		sx:   ty * tz,
		data: make([]float64, tx*ty*tz),
	}
	return g
}

// NewDims is New taking a topology.Dims extent.
func NewDims(d topology.Dims, halo int) *Grid { return New(d[0], d[1], d[2], halo) }

// Dims returns the interior extents.
func (g *Grid) Dims() topology.Dims { return topology.Dims{g.Nx, g.Ny, g.Nz} }

// Points returns the number of interior points.
func (g *Grid) Points() int { return g.Nx * g.Ny * g.Nz }

// index maps (possibly halo) coordinates to the flat slice offset.
func (g *Grid) index(i, j, k int) int {
	return (i+g.H)*g.sx + (j+g.H)*g.sy + (k + g.H)
}

// At returns the value at (i, j, k). Halo cells are reachable with
// indices in [-H, N+H).
func (g *Grid) At(i, j, k int) float64 { return g.data[g.index(i, j, k)] }

// Set stores v at (i, j, k).
func (g *Grid) Set(i, j, k int, v float64) { g.data[g.index(i, j, k)] = v }

// Data exposes the backing slice (interior plus halos) for kernels that
// need raw access; see Index for the layout.
func (g *Grid) Data() []float64 { return g.data }

// Index exposes the flat index computation for kernel code.
func (g *Grid) Index(i, j, k int) int { return g.index(i, j, k) }

// Strides returns the x and y strides of the flat layout (z stride is 1).
func (g *Grid) Strides() (sx, sy int) { return g.sx, g.sy }

// Fill sets every interior point to v (halos untouched).
func (g *Grid) Fill(v float64) {
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[row+k] = v
			}
		}
	}
	g.noteTraffic(g.Nx, 1)
}

// FillFunc sets every interior point to f(i, j, k).
func (g *Grid) FillFunc(f func(i, j, k int) float64) {
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[row+k] = f(i, j, k)
			}
		}
	}
	g.noteTraffic(g.Nx, 1)
}

// Clone returns a deep copy of the grid, halos included.
func (g *Grid) Clone() *Grid {
	out := New(g.Nx, g.Ny, g.Nz, g.H)
	copy(out.data, g.data)
	g.noteTraffic(g.Nx, 2)
	return out
}

// CopyInteriorFrom copies src's interior into g's interior. The interiors
// must have identical extents; halos may differ.
func (g *Grid) CopyInteriorFrom(src *Grid) {
	g.CopyInteriorRange(src, 0, g.Nx)
}

// MaxAbsDiff returns the largest absolute interior difference between two
// grids of identical extents.
func (g *Grid) MaxAbsDiff(o *Grid) float64 {
	if g.Nx != o.Nx || g.Ny != o.Ny || g.Nz != o.Nz {
		panic("grid: MaxAbsDiff extent mismatch")
	}
	max := 0.0
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			a := g.index(i, j, 0)
			b := o.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				d := math.Abs(g.data[a+k] - o.data[b+k])
				if d > max {
					max = d
				}
			}
		}
	}
	return max
}

// Dot returns the interior inner product <g, o>.
func (g *Grid) Dot(o *Grid) float64 { return g.DotRange(o, 0, g.Nx) }

// Norm2 returns the interior L2 norm.
func (g *Grid) Norm2() float64 { return math.Sqrt(g.Dot(g)) }

// Scale multiplies every interior point by a.
func (g *Grid) Scale(a float64) { g.ScaleRange(a, 0, g.Nx) }

// Axpy adds a*x to g's interior: g += a*x.
func (g *Grid) Axpy(a float64, x *Grid) { g.AxpyRange(a, x, 0, g.Nx) }

// InteriorSlice copies the interior into a new flat slice in x-major
// order, for transport between ranks.
func (g *Grid) InteriorSlice() []float64 {
	out := make([]float64, g.Points())
	g.CopyInterior(out)
	return out
}

// CopyInterior copies the interior into dst in x-major order, the
// layout of InteriorSlice. dst must hold at least Points() values.
func (g *Grid) CopyInterior(dst []float64) {
	if len(dst) < g.Points() {
		panic(fmt.Sprintf("grid: CopyInterior into %d values for %d points", len(dst), g.Points()))
	}
	pos := 0
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			copy(dst[pos:pos+g.Nz], g.data[row:row+g.Nz])
			pos += g.Nz
		}
	}
}

// SetInterior fills the interior from a flat x-major slice produced by
// InteriorSlice on a grid of identical extents.
func (g *Grid) SetInterior(src []float64) {
	if len(src) != g.Points() {
		panic(fmt.Sprintf("grid: SetInterior with %d values for %d points", len(src), g.Points()))
	}
	pos := 0
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			copy(g.data[row:row+g.Nz], src[pos:pos+g.Nz])
			pos += g.Nz
		}
	}
}

// Sum returns the sum over interior points.
func (g *Grid) Sum() float64 { return g.SumRange(0, g.Nx) }
