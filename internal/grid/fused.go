package grid

import (
	"fmt"

	"repro/internal/detsum"
)

// Fused BLAS-1 primitives. The solvers in internal/gpaw are
// memory-bandwidth-bound: chains like r.Scale(-1); r.Axpy(1, b);
// r.Norm2() stream the same array from DRAM three times. The fused
// variants here perform such chains in a single sweep. Each sweeps one
// whole grid on its caller: an elementwise pass over one grid is too
// short to pay a fork-join, so only the stencil sweeps and the pair
// dots are split across internal/stencil's worker pool.
//
// Reductions accumulate into detsum.Acc: each element's contribution is
// rounded once and then summed exactly, so a reduction's value depends
// only on the set of elements it covers — never on how the elements are
// partitioned across pool shares or MPI ranks. This is the contract
// that lets the distributed solvers in internal/gpaw be bit-identical
// to the serial ones. Every reduction has an Acc form feeding a
// caller-owned accumulator; the plain forms round the accumulator to
// float64. The dots hand their rows to Acc.MulRows, which sums a
// sweep's products by error-free extraction in blocks (Rump, Ogita and
// Oishi, 2008).

// checkSame panics unless o has g's interior extents.
func (g *Grid) checkSame(op string, o *Grid) {
	if g.Nx != o.Nx || g.Ny != o.Ny || g.Nz != o.Nz {
		panic(fmt.Sprintf("grid: %s extent mismatch", op))
	}
}

// Scale multiplies every interior point by a.
func (g *Grid) Scale(a float64) {
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[row+k] *= a
			}
		}
	}
	g.noteTraffic(g.Nx, 2)
}

// Axpy adds a*x to g's interior: g += a*x.
func (g *Grid) Axpy(a float64, x *Grid) {
	g.checkSame("Axpy", x)
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			dst := g.index(i, j, 0)
			src := x.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[dst+k] += float64(a * x.data[src+k])
			}
		}
	}
	g.noteTraffic(g.Nx, 3)
}

// AxpyScale sets g = s*g + a*x in one sweep, fusing the Scale+Axpy
// chains of the iterative solvers (e.g. CG's search-direction update
// p = r + beta*p is p.AxpyScale(1, r, beta)).
func (g *Grid) AxpyScale(a float64, x *Grid, s float64) {
	g.checkSame("AxpyScale", x)
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			dst := g.index(i, j, 0)
			src := x.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[dst+k] = float64(s*g.data[dst+k]) + float64(a*x.data[src+k])
			}
		}
	}
	g.noteTraffic(g.Nx, 3)
}

// Dot returns the interior inner product <g, o>. A self-dot (o == g)
// streams only one array.
func (g *Grid) Dot(o *Grid) float64 {
	var acc detsum.Acc
	g.DotAcc(o, &acc)
	return acc.Round()
}

// DotAcc accumulates the interior inner product <g, o> into acc.
func (g *Grid) DotAcc(o *Grid, acc *detsum.Acc) {
	g.checkSame("Dot", o)
	acc.MulRows(g.Nx, g.Ny, func(i, j int) ([]float64, []float64) {
		a := g.index(i, j, 0)
		b := o.index(i, j, 0)
		return g.data[a : a+g.Nz], o.data[b : b+g.Nz]
	})
	g.noteTraffic(g.Nx, dotStreams(g, o))
}

// dotStreams counts the DRAM streams of a dot product: one when the
// operands alias, two otherwise.
func dotStreams(g, o *Grid) int {
	if g == o {
		return 1
	}
	return 2
}

// AxpyDot performs g += a*x and returns the updated <g, g> in the same
// sweep — CG's residual update and convergence check fused into one
// pass.
func (g *Grid) AxpyDot(a float64, x *Grid) float64 {
	var acc detsum.Acc
	g.AxpyDotAcc(a, x, &acc)
	return acc.Round()
}

// AxpyDotAcc performs g += a*x and accumulates the updated <g, g> into
// acc in the same sweep.
func (g *Grid) AxpyDotAcc(a float64, x *Grid, acc *detsum.Acc) {
	g.checkSame("AxpyDot", x)
	acc.MulRows(g.Nx, g.Ny, func(i, j int) ([]float64, []float64) {
		dst := g.index(i, j, 0)
		src := x.index(i, j, 0)
		row, xrow := g.data[dst:dst+g.Nz], x.data[src:src+g.Nz]
		for k, xv := range xrow {
			row[k] += float64(a * xv)
		}
		return row, row
	})
	g.noteTraffic(g.Nx, 3)
}

// Sum returns the sum over interior points.
func (g *Grid) Sum() float64 {
	var acc detsum.Acc
	g.SumAcc(&acc)
	return acc.Round()
}

// SumAcc accumulates the sum over interior points into acc.
func (g *Grid) SumAcc(acc *detsum.Acc) {
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			acc.AddSlice(g.data[row : row+g.Nz])
		}
	}
	g.noteTraffic(g.Nx, 1)
}

// AddScalar adds v to every interior point (one read-modify-write
// sweep; with Sum it replaces the FillFunc-based mean removal of the
// periodic Poisson solvers).
func (g *Grid) AddScalar(v float64) {
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[row+k] += v
			}
		}
	}
	g.noteTraffic(g.Nx, 2)
}

// AccumSquared adds a*x*x pointwise to g — the density accumulation
// n += occ*|psi|^2 of the SCF loop in one sweep. The product is rounded
// before it is added, so an FMA-capable architecture gets amd64's bits.
func (g *Grid) AccumSquared(a float64, x *Grid) {
	g.checkSame("AccumSquared", x)
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			dst := g.index(i, j, 0)
			src := x.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				v := x.data[src+k]
				g.data[dst+k] += float64(a * v * v)
			}
		}
	}
	g.noteTraffic(g.Nx, 3)
}

// CopyInteriorFrom copies src's interior into g's interior. The
// interiors must have identical extents; halos may differ.
func (g *Grid) CopyInteriorFrom(src *Grid) {
	g.checkSame("CopyInteriorFrom", src)
	for i := 0; i < g.Nx; i++ {
		for j := 0; j < g.Ny; j++ {
			dst := g.index(i, j, 0)
			s := src.index(i, j, 0)
			copy(g.data[dst:dst+g.Nz], src.data[s:s+g.Nz])
		}
	}
	g.noteTraffic(g.Nx, 2)
}
