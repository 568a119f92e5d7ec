//go:build !amd64

package stencil

// rowSIMD is false: off amd64 the 12-tap stencil runs the Go loop alone.
var rowSIMD = false

func blockAVX2(out, x, a, p avxOperand, nx, ny, n int, center float64, taps *tap, ep epilogue) {
	panic("stencil: no SIMD block body")
}
