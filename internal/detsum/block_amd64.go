package detsum

// productsAVX2 is productsGo on n >= 1 values at dst, x and y, which
// the caller has bounded.
//
//go:noescape
func productsAVX2(dst, x, y *float64, n int, m *[4]uint64)

// extractAVX2 is extractGo on n values at p, n a positive multiple of
// 8, which the caller has bounded.
//
//go:noescape
func extractAVX2(p *float64, n int, sigma float64) (sum float64, bits uint64)
