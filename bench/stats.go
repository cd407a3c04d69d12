package main

import (
	"math"
	"sort"
)

// median returns the median of xs without reordering it; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, 50)
}

// mad is the median absolute deviation of xs around med.
func mad(xs []float64, med float64) float64 {
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return median(dev)
}

// percentileSorted interpolates the p-th percentile (0..100) of an
// ascending slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// supported reports whether n samples leave at least ten beyond the p-th
// percentile — the rule for a tail figure to be worth printing.
func supported(n int, p float64) bool {
	return float64(n)*(100-p) >= 1000-1e-6 // tolerance: 100-99.9 is not exact
}

// medianSpread is the relative uncertainty of a median of n samples with
// the given MAD: twice the standard error of the median under a normal
// model (σ ≈ 1.4826·MAD, se ≈ 1.2533·σ/√n), as a share of the median.
// -compare calls a row unresolved when this exceeds the row's bound.
func medianSpread(med, madv float64, n int) float64 {
	if n < 2 || med == 0 {
		return 0
	}
	return 2 * 1.2533 * 1.4826 * madv / math.Sqrt(float64(n)) / math.Abs(med)
}
