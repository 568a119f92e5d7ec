// Package stencil implements the finite-difference operators at the heart
// of GPAW: central-difference stencils on uniform 3-D real-space grids.
// The paper's operator is the 13-point stencil — a linear combination of a
// point, its two nearest neighbours in all six axis directions — which is
// the fourth-order central-difference Laplacian (radius 2 per axis).
//
// Coefficients for arbitrary radius and derivative order are generated
// with Fornberg's algorithm, so higher-order operators used elsewhere in
// GPAW are available too.
//
// # Execution engine and memory-traffic model
//
// The radius-2 kernel is bound by instructions, not memory bandwidth: it
// moves 16 bytes of DRAM traffic per point for 25 flops (2 streams — read
// the source once, neighbour reuse served by cache, write the
// destination) and takes ≈ 4.7–7.0 ns per point as a Go loop on one core
// of a 2-vCPU Xeon host, ≈ 1.7–2.1 with the AVX2 block body amd64 hosts
// run (BenchmarkApply at 24^3–64^3), where the host streams an axpy at
// ≈ 1.1 ns per element (grid.axpy_ns_per_elem). Still, every separate
// Apply/Scale/Axpy/Dot pass of a solver costs a full traversal of
// grid-sized arrays, so the package provides, besides the plain operator:
//
//   - parallel.go — a Pool of persistent worker goroutines that claim
//     the shares of a fan-out posted to the pool's one job slot as data
//     (a Kernel's sweep or Exec's Task), so a warmed fan-out allocates
//     nothing. ApplyParallel splits the outer x planes across workers
//     and walks cache-sized (j, k) tiles within each share, so the five
//     in-flight stencil planes stay resident while streaming. A fused
//     kernel's reduction is merged exactly from per-share partials,
//     making every result independent of the worker count. The grid
//     package's one-grid BLAS-1 passes are too short to pay a fork-join
//     and run on their caller.
//
//   - fused.go — Kernel, one value per fusion of a stencil application
//     with the BLAS-1 work solvers do immediately after it, in one
//     sweep; Kernel.Apply runs it on one state:
//
//     op.Dot()               dst = op(src), acc += <src,dst>      2 streams (16 B/pt)
//     op.Residual(b)         r = b - op(phi), acc += |r|^2        3 streams (24 B/pt)
//     op.Smooth(rhs, c)      dst = phi + c*(rhs - op(phi))        3 streams (24 B/pt)
//     op.Step(v, α, β, γ)    dst = β*src + α*(op+v)(src)          2-4 streams
//     .                            + γ*prev   (prev nil: no term)
//
//     The unfused chains these replace cost 7-9 streams; a fused CG
//     iteration moves roughly half the bytes of its unfused counterpart
//     (gpaw's TestFusedCGReducesTraffic). grid.TrafficPoints observes
//     the stream counts.
//
//   - shell.go — a sweep is (fusion, region): every Kernel is written
//     once and covers the Region of the Operator view it was built on
//     or narrowed to (Operator.Over, Kernel.Over) — Full, the halo-free
//     deep Interior, or the boundary Shell — so a solver overlaps a halo
//     exchange with the Interior and finishes with the Shell,
//     bit-identical to Full.
//
// All kernels — serial, parallel, fused — evaluate the stencil through
// one shared row routine, so their stencil values are bit-identical
// regardless of worker count or fusion.
package stencil

import "fmt"

// Weights computes finite-difference weights by Fornberg's method
// (B. Fornberg, "Generation of Finite Difference Formulas on Arbitrarily
// Spaced Grids", Math. Comp. 51 (1988) 699-706).
//
// Given sample locations xs and an evaluation point z, it returns
// c[j][k] = the weight of sample j in the approximation of the k-th
// derivative at z, for k = 0..m. len(xs) must exceed m.
func Weights(z float64, xs []float64, m int) [][]float64 {
	n := len(xs) - 1
	if n < m {
		panic(fmt.Sprintf("stencil: %d points cannot resolve derivative order %d", n+1, m))
	}
	c := make([][]float64, n+1)
	for i := range c {
		c[i] = make([]float64, m+1)
	}
	c1 := 1.0
	c4 := xs[0] - z
	c[0][0] = 1
	for i := 1; i <= n; i++ {
		mn := i
		if mn > m {
			mn = m
		}
		c2 := 1.0
		c5 := c4
		c4 = xs[i] - z
		for j := 0; j < i; j++ {
			c3 := xs[i] - xs[j]
			c2 *= c3
			if j == i-1 {
				for k := mn; k >= 1; k-- {
					c[i][k] = c1 * (float64(float64(k)*c[i-1][k-1]) - float64(c5*c[i-1][k])) / c2
				}
				c[i][0] = -c1 * c5 * c[i-1][0] / c2
			}
			for k := mn; k >= 1; k-- {
				c[j][k] = (float64(c4*c[j][k]) - float64(float64(k)*c[j][k-1])) / c3
			}
			c[j][0] = c4 * c[j][0] / c3
		}
		c1 = c2
	}
	return c
}

// CentralWeights returns the weights of the 2R+1-point central-difference
// approximation to the m-th derivative on a uniform grid with spacing h.
// The returned slice has length 2R+1 indexed by offset+R.
func CentralWeights(r, m int, h float64) []float64 {
	if r < 1 {
		panic(fmt.Sprintf("stencil: radius %d < 1", r))
	}
	xs := make([]float64, 2*r+1)
	for i := range xs {
		xs[i] = float64(i-r) * h
	}
	w := Weights(0, xs, m)
	out := make([]float64, 2*r+1)
	for i := range out {
		out[i] = w[i][m]
	}
	return out
}
