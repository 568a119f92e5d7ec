package grid

import (
	"fmt"

	"repro/internal/detsum"
)

// Fused and range-based BLAS-1 primitives. The solvers in internal/gpaw
// are memory-bandwidth-bound: chains like r.Scale(-1); r.Axpy(1, b);
// r.Norm2() stream the same array from DRAM three times. The fused
// variants here perform such chains in a single sweep, and every
// primitive has a plane-range form ([i0, i1) over the x dimension) so
// the worker pool in internal/stencil can split one grid's sweep across
// threads with deterministic, disjoint writes.
//
// Reductions accumulate into detsum.Acc: each element's contribution is
// rounded once and then summed exactly, so a reduction's value depends
// only on the set of elements it covers — never on how the sweep is
// partitioned across plane ranges, pool workers, or MPI ranks. This is
// the contract that lets the distributed solvers in internal/gpaw be
// bit-identical to the serial ones. Every reduction has an Acc-range
// form feeding a caller-owned accumulator; the plain forms round the
// accumulator to float64. The dots hand their rows to Acc.MulRows,
// which puts a long sweep through a per-exponent front end.

// checkSame panics unless o has g's interior extents.
func (g *Grid) checkSame(op string, o *Grid) {
	if g.Nx != o.Nx || g.Ny != o.Ny || g.Nz != o.Nz {
		panic(fmt.Sprintf("grid: %s extent mismatch", op))
	}
}

// ScaleRange multiplies interior planes [i0, i1) by a.
func (g *Grid) ScaleRange(a float64, i0, i1 int) {
	for i := i0; i < i1; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[row+k] *= a
			}
		}
	}
	g.noteTraffic(i1-i0, 2)
}

// AxpyRange adds a*x to interior planes [i0, i1) of g.
func (g *Grid) AxpyRange(a float64, x *Grid, i0, i1 int) {
	g.checkSame("Axpy", x)
	for i := i0; i < i1; i++ {
		for j := 0; j < g.Ny; j++ {
			dst := g.index(i, j, 0)
			src := x.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[dst+k] += float64(a * x.data[src+k])
			}
		}
	}
	g.noteTraffic(i1-i0, 3)
}

// AxpyScale sets g = s*g + a*x in one sweep, fusing the Scale+Axpy
// chains of the iterative solvers (e.g. CG's search-direction update
// p = r + beta*p is p.AxpyScale(1, r, beta)).
func (g *Grid) AxpyScale(a float64, x *Grid, s float64) {
	g.AxpyScaleRange(a, x, s, 0, g.Nx)
}

// AxpyScaleRange is AxpyScale over interior planes [i0, i1).
func (g *Grid) AxpyScaleRange(a float64, x *Grid, s float64, i0, i1 int) {
	g.checkSame("AxpyScale", x)
	for i := i0; i < i1; i++ {
		for j := 0; j < g.Ny; j++ {
			dst := g.index(i, j, 0)
			src := x.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[dst+k] = float64(s*g.data[dst+k]) + float64(a*x.data[src+k])
			}
		}
	}
	g.noteTraffic(i1-i0, 3)
}

// DotRange returns the inner product <g, o> over interior planes
// [i0, i1). A self-dot (o == g) streams only one array.
func (g *Grid) DotRange(o *Grid, i0, i1 int) float64 {
	var acc detsum.Acc
	g.DotAccRange(o, i0, i1, &acc)
	return acc.Round()
}

// DotAccRange accumulates the inner product <g, o> over interior planes
// [i0, i1) into acc.
func (g *Grid) DotAccRange(o *Grid, i0, i1 int, acc *detsum.Acc) {
	g.checkSame("Dot", o)
	acc.MulRows(i1-i0, g.Ny, func(i, j int) ([]float64, []float64) {
		a := g.index(i0+i, j, 0)
		b := o.index(i0+i, j, 0)
		return g.data[a : a+g.Nz], o.data[b : b+g.Nz]
	})
	g.noteTraffic(i1-i0, dotStreams(g, o))
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
	return g.AxpyDotRange(a, x, 0, g.Nx)
}

// AxpyDotRange is AxpyDot over interior planes [i0, i1), returning the
// partial sum of squares.
func (g *Grid) AxpyDotRange(a float64, x *Grid, i0, i1 int) float64 {
	var acc detsum.Acc
	g.AxpyDotAccRange(a, x, i0, i1, &acc)
	return acc.Round()
}

// AxpyDotAccRange performs g += a*x over interior planes [i0, i1) and
// accumulates the updated <g, g> into acc in the same sweep.
func (g *Grid) AxpyDotAccRange(a float64, x *Grid, i0, i1 int, acc *detsum.Acc) {
	g.checkSame("AxpyDot", x)
	acc.MulRows(i1-i0, g.Ny, func(i, j int) ([]float64, []float64) {
		dst := g.index(i0+i, j, 0)
		src := x.index(i0+i, j, 0)
		row, xrow := g.data[dst:dst+g.Nz], x.data[src:src+g.Nz]
		for k, xv := range xrow {
			row[k] += float64(a * xv)
		}
		return row, row
	})
	g.noteTraffic(i1-i0, 3)
}

// SumRange returns the sum over interior planes [i0, i1).
func (g *Grid) SumRange(i0, i1 int) float64 {
	var acc detsum.Acc
	g.SumAccRange(i0, i1, &acc)
	return acc.Round()
}

// SumAccRange accumulates the sum over interior planes [i0, i1) into acc.
func (g *Grid) SumAccRange(i0, i1 int, acc *detsum.Acc) {
	for i := i0; i < i1; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			acc.AddSlice(g.data[row : row+g.Nz])
		}
	}
	g.noteTraffic(i1-i0, 1)
}

// AddScalar adds v to every interior point (one read-modify-write
// sweep; with Sum it replaces the FillFunc-based mean removal of the
// periodic Poisson solvers).
func (g *Grid) AddScalar(v float64) { g.AddScalarRange(v, 0, g.Nx) }

// AddScalarRange is AddScalar over interior planes [i0, i1).
func (g *Grid) AddScalarRange(v float64, i0, i1 int) {
	for i := i0; i < i1; i++ {
		for j := 0; j < g.Ny; j++ {
			row := g.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				g.data[row+k] += v
			}
		}
	}
	g.noteTraffic(i1-i0, 2)
}

// AccumSquared adds a*x*x pointwise to g — the density accumulation
// n += occ*|psi|^2 of the SCF loop in one sweep. The product is rounded
// before it is added, so an FMA-capable architecture gets amd64's bits.
func (g *Grid) AccumSquared(a float64, x *Grid) {
	g.AccumSquaredRange(a, x, 0, g.Nx)
}

// AccumSquaredRange is AccumSquared over interior planes [i0, i1).
func (g *Grid) AccumSquaredRange(a float64, x *Grid, i0, i1 int) {
	g.checkSame("AccumSquared", x)
	for i := i0; i < i1; i++ {
		for j := 0; j < g.Ny; j++ {
			dst := g.index(i, j, 0)
			src := x.index(i, j, 0)
			for k := 0; k < g.Nz; k++ {
				v := x.data[src+k]
				g.data[dst+k] += float64(a * v * v)
			}
		}
	}
	g.noteTraffic(i1-i0, 3)
}

// CopyInteriorRange copies interior planes [i0, i1) of src into g.
func (g *Grid) CopyInteriorRange(src *Grid, i0, i1 int) {
	g.checkSame("CopyInteriorFrom", src)
	for i := i0; i < i1; i++ {
		for j := 0; j < g.Ny; j++ {
			dst := g.index(i, j, 0)
			s := src.index(i, j, 0)
			copy(g.data[dst:dst+g.Nz], src.data[s:s+g.Nz])
		}
	}
	g.noteTraffic(i1-i0, 2)
}
