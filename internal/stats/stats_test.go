package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("Geomean(1,4) = %v, want 2", got)
	}
	if Geomean(nil) != 0 {
		t.Error("Geomean(nil) != 0")
	}
	// Non-positive values must be skipped, not poison the result.
	got = Geomean([]float64{0, 4, -1, 4})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("Geomean with non-positives = %v, want 4", got)
	}
}

func TestGeomeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var vs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			v = math.Abs(v)
			// Skip non-finite values and the extreme top of the float64
			// range, where exp(log(x)) itself overflows.
			if v <= 0 || v > 1e300 || math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			vs = append(vs, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(vs) == 0 {
			return Geomean(vs) == 0
		}
		// Compare in the log domain to avoid overflow near MaxFloat64.
		g := math.Log(Geomean(vs))
		return g >= math.Log(lo)-1e-9 && g <= math.Log(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
}
