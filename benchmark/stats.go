package main

import (
	"math"
	"regexp"
	"sort"
)

// summary is the order statistics of one metric's samples within a run.
type summary struct {
	N                        int
	Median, Q1, Q3, Min, Max float64
}

// summarize sorts a copy of xs and returns its order statistics.
// Quartiles use the same exclusive method as Python's
// statistics.quantiles(xs, n=4), the rule the contract's spread check
// is stated in; a single sample is its own quartiles.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Min: s[0], Max: s[len(s)-1]}
	out.Median = quantile(s, 2)
	out.Q1, out.Q3 = quantile(s, 1), quantile(s, 3)
	return out
}

// quantile returns the k-th quartile (k = 1, 2, 3) of sorted s exactly
// as Python's exclusive method does, including its extrapolation past
// the ends of very small samples.
func quantile(s []float64, k int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := min(max(k*m/4, 1), n-1)
	delta := float64(k*m - 4*j)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// worsening is how far b is worse than a as a share of a, for a metric
// where lower is better; negative when b improved.
func worsening(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// withinBound reports whether going from a to b stays inside the
// metric's regression bound.
func withinBound(a, b, bound float64) bool { return worsening(a, b) <= bound }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a workload or a metric.
func validName(s string) bool { return nameRE.MatchString(s) }
