//go:build !amd64

package cpu

// AVX2 is false off amd64: no assembly body runs there.
var AVX2 = false
