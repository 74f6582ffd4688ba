// Package stats provides the aggregation primitives the experiment
// drivers fold per-benchmark metrics with (speedups, traffic and energy
// ratios, hit fractions).
package stats

import "math"

// Geomean returns the geometric mean of vs, skipping non-positive values
// (a non-positive normalized metric indicates a degenerate run and would
// otherwise poison the mean). It returns 0 for an empty input.
func Geomean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v <= 0 {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
