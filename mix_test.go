package d2m

import (
	"strings"
	"testing"
)

func TestRunMixErrors(t *testing.T) {
	if _, err := RunMix(Base2L, "tpc-c", "nope", fastOpt); err == nil {
		t.Error("unknown bench B accepted")
	}
	if _, err := RunMix(Base2L, "nope", "tpc-c", fastOpt); err == nil {
		t.Error("unknown bench A accepted")
	}
	odd := fastOpt
	odd.Nodes = 5
	if _, err := RunMix(Base2L, "tpc-c", "fft", odd); err == nil {
		t.Error("odd node count accepted")
	}
	bad := fastOpt
	bad.Topology = "hypercube"
	if _, err := RunMix(Base2L, "tpc-c", "fft", bad); err == nil {
		t.Error("bad topology accepted")
	}
	// Each must be an error, never a zero MixResult or a panic.
	small := Options{Nodes: 4, Warmup: 1000, Measure: 2000}
	if _, err := RunMix(Kind(99), "tpc-c", "fft", small); err == nil {
		t.Error("Kind(99) accepted")
	}
	bad = small
	bad.MDScale = 3
	if _, err := RunMix(D2MNSR, "tpc-c", "fft", bad); err == nil {
		t.Error("MDScale 3 accepted")
	}
}

func TestRunMixDeterministicAndLabeled(t *testing.T) {
	opt := Options{Warmup: 60_000, Measure: 120_000}
	a, err := RunMix(D2MNSR, "fft", "canneal", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(D2MNSR, "fft", "canneal", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("mix runs not deterministic:\n%+v\n%+v", a, b)
	}
	if a.BenchA != "fft" || a.BenchB != "canneal" || a.Kind != D2MNSR {
		t.Fatalf("labels wrong: %+v", a)
	}
	if a.SoloA == 0 || a.MixedA == 0 || a.SoloB == 0 || a.MixedB == 0 {
		t.Fatalf("degenerate cycles: %+v", a)
	}
}

// Co-scheduled programs live in disjoint address spaces: without the
// bandwidth constraint, the mixed run must not perturb either program's
// per-node time beyond the engine's round-robin jitter (no sharing, no
// capacity pressure at these footprints). A large deviation would mean
// the address offsetting is broken (false sharing between programs).
func TestRunMixAddressIsolation(t *testing.T) {
	opt := Options{Warmup: 100_000, Measure: 200_000} // infinite bandwidth
	r, err := RunMix(D2MNSR, "fft", "fft", opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, slow := range []float64{r.SlowdownA, r.SlowdownB} {
		if slow < 0.95 || slow > 1.05 {
			t.Fatalf("slowdown %v under infinite bandwidth; programs are not isolated: %+v", slow, r)
		}
	}
}

// The §IV-B isolation claim, measured: under a traffic-heavy neighbour
// on a bandwidth-constrained fabric, the victim slows on Base-2L and
// does not slow more on D2M-NS-R (its traffic cut is its isolation).
func TestMixIsolationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run interference study")
	}
	opt := Options{Warmup: 200_000, Measure: 600_000}
	rows := MixStudy(opt, [][2]string{{"tpc-c", "streamcluster"}, {"facesim", "lu_ncb"}})
	for _, r := range rows {
		if r.SlowdownA[D2MNSR] > r.SlowdownA[Base2L]+0.02 {
			t.Errorf("%s+%s: D2M-NS-R victim slowdown %.2f > Base-2L %.2f",
				r.BenchA, r.BenchB, r.SlowdownA[D2MNSR], r.SlowdownA[Base2L])
		}
		if r.SlowdownA[D2MNSR] > 1.05 {
			t.Errorf("%s+%s: D2M-NS-R victim slowdown %.2f; traffic cut should isolate",
				r.BenchA, r.BenchB, r.SlowdownA[D2MNSR])
		}
	}
	out := RenderMix(rows)
	if !strings.Contains(out, "tpc-c+streamcluster") || !strings.Contains(out, "D2M-NS-R") {
		t.Error("RenderMix output malformed")
	}
}
