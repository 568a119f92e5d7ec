//go:build !amd64

package detsum

func productsAVX2(dst, x, y *float64, n int, m *[4]uint64) {
	panic("detsum: no SIMD products body")
}

func extractAVX2(p *float64, n int, sigma float64) (sum float64, bits uint64) {
	panic("detsum: no SIMD extract body")
}
