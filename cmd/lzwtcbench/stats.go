package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// quantile: with fewer, the quantile is an outlier or two, not a tail.
const minBeyond = 10

// tailLadder lists the quantiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// rank returns the 1-based nearest rank of the q-quantile of n samples.
// The epsilon keeps a product like 0.95×200 that lands a hair above an
// integer from rounding up to the next rank.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of sorted (ascending):
// the smallest sample with at least q of the samples at or below it.
// It returns 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := min(max(rank(q, n), 1), n)
	return sorted[r-1]
}

// tailQuantile returns the highest quantile of tailLadder, no higher
// than limit, that leaves at least minBeyond of n samples beyond it,
// and 0.5 when none does.
func tailQuantile(n int, limit float64) float64 {
	for _, q := range tailLadder {
		if q > limit {
			continue
		}
		if n-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// perInputQuantile computes the q-quantile of each input's samples and
// returns their mean over the inputs that have samples. Workloads that
// cycle through inputs of very different sizes have one latency mode
// per input; a quantile of the pooled samples would land on the border
// between two modes and jump between them from run to run.
func perInputQuantile(byInput [][]float64, q float64) float64 {
	sum, k := 0.0, 0
	for _, s := range byInput {
		if len(s) == 0 {
			continue
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		sum += percentile(sorted, q)
		k++
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}

// minCount returns the smallest sample count over the inputs.
func minCount(byInput [][]float64) int {
	m := -1
	for _, s := range byInput {
		if m < 0 || len(s) < m {
			m = len(s)
		}
	}
	if m < 0 {
		return 0
	}
	return m
}

// median returns the nearest-rank median of xs without modifying it.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentile(sorted, 0.5)
}

// ratio returns a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
