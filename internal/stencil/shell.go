package stencil

import "fmt"

// Regions for the split-phase halo exchange (internal/core.Engine.Run):
// every sweep can be split into a deep-interior part that reads no halo
// cell — computable while halo messages are still in flight — and a
// one-stencil-radius boundary shell computed after the exchange
// completes. A kernel is written once; the Operator view it is built
// on or narrowed to (Operator.Over, Kernel.Over) says which region it
// covers.
//
// Geometry. A point (i, j, k) of an Nx x Ny x Nz sweep reads halos iff
// it lies within R of some face (the operator's taps are axis-aligned,
// so the reach along each axis is exactly R). The deep interior is the
// box [R, Nx-R) x [R, Ny-R) x [R, Nz-R), clamped to empty when an
// extent is smaller than 2R; the shell is its complement, decomposed
// into at most six disjoint blocks: two full x slabs, two y strips
// between them, and two z strips between those. Interior plus shell
// cover every sweep point exactly once (fuzzed in shell_test.go).
//
// Determinism. Interior followed by Shell is bit-identical to Full:
// every point's stencil value funnels through the same fusedBlock
// arithmetic, elementwise outputs are written once by whichever region
// owns the point, and reductions accumulate into detsum.Acc — exact and
// order-independent — so summing interior and shell partials equals
// the full sweep's sum bitwise no matter how the points are split.

// Region names the part of a sweep a kernel covers.
type Region int

const (
	// Full is every point of the sweep.
	Full Region = iota
	// Interior is the deep interior: the points whose stencil reads no
	// halo cell, safe to compute while a halo exchange is in flight.
	Interior
	// Shell is the complement of Interior: the points within one
	// stencil radius of a face, which need valid halos.
	Shell
)

// Points returns how many points of an (nx, ny, nz) sweep with stencil
// radius r the region covers.
func (rg Region) Points(nx, ny, nz, r int) int {
	switch in := InteriorBlock(nx, ny, nz, r).Points(); rg {
	case Interior:
		return in
	case Shell:
		return nx*ny*nz - in
	}
	return nx * ny * nz
}

// Block is a half-open sub-box [X0,X1) x [Y0,Y1) x [Z0,Z1) of a grid
// sweep, in interior coordinates.
type Block struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// Empty reports whether the block contains no points.
func (b Block) Empty() bool { return b.X0 >= b.X1 || b.Y0 >= b.Y1 || b.Z0 >= b.Z1 }

// Points returns the number of points in the block.
func (b Block) Points() int {
	if b.Empty() {
		return 0
	}
	return (b.X1 - b.X0) * (b.Y1 - b.Y0) * (b.Z1 - b.Z0)
}

// shellRange returns the [lo, hi) extent of the deep interior along one
// dimension of length n for radius r, clamped so lo <= hi always holds
// (degenerate extents make the interior empty along that axis).
func shellRange(n, r int) (lo, hi int) {
	lo = r
	if lo > n {
		lo = n
	}
	hi = n - r
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// InteriorBlock returns the deep-interior box of an (nx, ny, nz) sweep
// for stencil radius r: the points whose stencil reads no halo cell.
func InteriorBlock(nx, ny, nz, r int) Block {
	xlo, xhi := shellRange(nx, r)
	ylo, yhi := shellRange(ny, r)
	zlo, zhi := shellRange(nz, r)
	return Block{xlo, xhi, ylo, yhi, zlo, zhi}
}

// AppendShellBlocks appends the boundary shell of an (nx, ny, nz) sweep
// for radius r — the complement of InteriorBlock — as up to six
// disjoint blocks: x-low and x-high slabs spanning the full cross
// section, y strips between them, and z strips between those. Together
// with the interior block they cover every point exactly once.
func AppendShellBlocks(dst []Block, nx, ny, nz, r int) []Block {
	xlo, xhi := shellRange(nx, r)
	ylo, yhi := shellRange(ny, r)
	zlo, zhi := shellRange(nz, r)
	for _, b := range [6]Block{
		{0, xlo, 0, ny, 0, nz},
		{xhi, nx, 0, ny, 0, nz},
		{xlo, xhi, 0, ylo, 0, nz},
		{xlo, xhi, yhi, ny, 0, nz},
		{xlo, xhi, ylo, yhi, 0, zlo},
		{xlo, xhi, ylo, yhi, zhi, nz},
	} {
		if !b.Empty() {
			dst = append(dst, b)
		}
	}
	return dst
}

// String implements fmt.Stringer for test failure messages.
func (b Block) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1)
}
