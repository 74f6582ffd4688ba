package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile of an ascending
// slice: the smallest sample with at least p of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := rank(n, p) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
// The epsilon keeps products such as 0.99*1000 from rounding up past
// an exact integer.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// beyond counts the samples strictly above the p-quantile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailLadder is the percentile ladder the ten-samples-beyond rule
// walks down, highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tailPercentile returns the highest ladder percentile that has at
// least ten samples beyond it, and false when not even the median
// qualifies (fewer than 20 samples).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// latencies is one request class's timing sample, in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) {
	*l = append(*l, float64(d.Nanoseconds())/1e6)
}

// summary sorts a copy of the sample and reports its median, its p90,
// and the tail percentile the ten-beyond rule allows.
type summary struct {
	N      int
	P50    float64
	P90    float64
	TailP  float64 // 0 when no percentile qualifies
	TailMS float64
}

func summarize(l latencies) summary {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 0.5), P90: percentile(s, 0.9)}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP, out.TailMS = p, percentile(s, p)
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
