//go:build race

package stencil

// raceBuild reports whether the race detector instruments this test
// binary. Its Go loops spill every operand around the detector's calls,
// and the compiler then orders some commutative operands differently
// than in a normal build, which only a NaN's payload can show.
const raceBuild = true
