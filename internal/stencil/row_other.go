//go:build !amd64

package stencil

// rowSIMD is false: off amd64 the 12-tap stencil runs the Go loop alone.
var rowSIMD = false

func blockAVX2(out, x *float64, nx, ny, n, isx, isy, osx, osy int, center float64, taps *tap) {
	panic("stencil: no SIMD block body")
}
