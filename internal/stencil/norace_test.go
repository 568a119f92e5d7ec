//go:build !race

package stencil

// raceBuild reports whether the race detector instruments this test
// binary (see race_test.go).
const raceBuild = false
