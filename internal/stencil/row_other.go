//go:build !amd64

package stencil

func blockAVX2(out, x, a, p avxOperand, nx, ny, n int, center float64, taps *tap, ep epilogue) {
	panic("stencil: no SIMD block body")
}
