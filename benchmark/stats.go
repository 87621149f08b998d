package main

import (
	"math"
	"sort"
)

// percentile returns the q-th quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns vals sorted ascending, leaving vals untouched.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

func median(vals []float64) float64 { return percentile(sortedCopy(vals), 0.5) }

// quartiles returns the first, second and third quartile of vals by
// the exclusive method — the one Python's statistics.quantiles(vals,
// n=4) uses, which is how the acceptance check computes spreads.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4, 1-based, clamped to the sample.
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// spread is the quartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func geomean(a, b float64) float64 { return math.Sqrt(a * b) }

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
