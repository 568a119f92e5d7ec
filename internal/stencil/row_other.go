//go:build !amd64

package stencil

// rowSIMD is false: off amd64 the 12-tap row runs the Go loop alone.
var rowSIMD = false

func rowAVX2(out, x *float64, n int, center float64, taps *tap) { panic("stencil: no SIMD row body") }
