package main

import "testing"

func TestTailPercentileTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},  // the median has only 9 beyond it
		{20, 0.5, true}, // exactly 10 beyond the median
		{99, 0.5, true}, // p90 has 9 beyond
		{100, 0.9, true},
		{999, 0.9, true}, // p99 has 9 beyond
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, got*100, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// 0.99*1000 must not round up past rank 990.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median of an even count is the mean of the middle pair")
	}
}
