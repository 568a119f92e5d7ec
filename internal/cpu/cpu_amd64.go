package cpu

// AVX2 holds when the host has AVX2 and its OS saves YMM state.
var AVX2 = hasAVX2()

func hasAVX2() bool
