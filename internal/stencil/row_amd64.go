package stencil

// rowSIMD selects blockAVX2 for the 12-tap stencil; it holds when the
// host has AVX2 and its OS saves YMM state.
var rowSIMD = hasAVX2()

func hasAVX2() bool

// blockAVX2 is stencilRow's 12-tap loop over nx planes of ny rows of
// n >= 1 points, x = &in[s0], out = &out[d0], with separate input and
// output strides; the caller has bounded every address it touches.
//
//go:noescape
func blockAVX2(out, x *float64, nx, ny, n, isx, isy, osx, osy int, center float64, taps *tap)
