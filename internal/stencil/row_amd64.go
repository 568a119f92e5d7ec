package stencil

// rowSIMD selects rowAVX2 for the 12-tap row; it holds when the host has
// AVX2 and its OS saves YMM state.
var rowSIMD = hasAVX2()

func hasAVX2() bool

// rowAVX2 is stencilRow's 12-tap loop over out[0:n] for n a multiple of
// 4, x = &in[s0]; the caller's re-slices bound every address it reads.
//
//go:noescape
func rowAVX2(out, x *float64, n int, center float64, taps *tap)
