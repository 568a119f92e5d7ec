package stencil

// blockAVX2 is fusedBlock's 12-tap path: the stencil of x over nx
// planes of ny rows of n >= 1 points, ep applied to each value before
// it is stored at out, a and p ep's operands. The caller has bounded
// every address it touches.
//
//go:noescape
func blockAVX2(out, x, a, p avxOperand, nx, ny, n int, center float64, taps *tap, ep epilogue)
