package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if 1<<LineShift != LineBytes {
		t.Errorf("LineShift %d inconsistent with LineBytes %d", LineShift, LineBytes)
	}
	if 1<<RegionShift != RegionBytes {
		t.Errorf("RegionShift %d inconsistent with RegionBytes %d", RegionShift, RegionBytes)
	}
	if LinesPerRegion*LineBytes != RegionBytes {
		t.Errorf("LinesPerRegion*LineBytes = %d, want %d", LinesPerRegion*LineBytes, RegionBytes)
	}
	if 1<<PageShift != PageBytes {
		t.Errorf("PageShift %d inconsistent with PageBytes %d", PageShift, PageBytes)
	}
}

func TestAddrDecomposition(t *testing.T) {
	a := Addr(0x12345)
	if got := a.Line(); got != LineAddr(0x12345>>6) {
		t.Errorf("Line() = %v", got)
	}
	if got := a.Region(); got != RegionAddr(0x12345>>10) {
		t.Errorf("Region() = %v", got)
	}
	if got := a.Page(); got != 0x12 {
		t.Errorf("Page() = %#x, want 0x12", got)
	}
}

func TestLineRegionRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		l := a.Line()
		r := a.Region()
		if l.Region() != r {
			return false
		}
		if r.Line(l.Index()) != l {
			return false
		}
		// The line's byte address must fall inside the region.
		return l.Addr().Region() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionLineEnumeration(t *testing.T) {
	r := RegionAddr(7)
	seen := map[LineAddr]bool{}
	for i := 0; i < LinesPerRegion; i++ {
		l := r.Line(i)
		if l.Region() != r {
			t.Fatalf("line %d of %v is in region %v", i, r, l.Region())
		}
		if l.Index() != i {
			t.Fatalf("line %d reports index %d", i, l.Index())
		}
		if seen[l] {
			t.Fatalf("duplicate line %v", l)
		}
		seen[l] = true
	}
}

func TestRegionLinePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Line(LinesPerRegion) did not panic")
		}
	}()
	RegionAddr(0).Line(LinesPerRegion)
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k       Kind
		write   bool
		instr   bool
		wantStr string
	}{
		{IFetch, false, true, "ifetch"},
		{Load, false, false, "load"},
		{Store, true, false, "store"},
	}
	for _, c := range cases {
		if c.k.IsWrite() != c.write {
			t.Errorf("%v.IsWrite() = %v", c.k, c.k.IsWrite())
		}
		if c.k.IsInstr() != c.instr {
			t.Errorf("%v.IsInstr() = %v", c.k, c.k.IsInstr())
		}
		if c.k.String() != c.wantStr {
			t.Errorf("%v.String() = %q", c.k, c.k.String())
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a stuck generator")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("Intn(10) value %d appeared %d/10000 times; badly skewed", v, c)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(3)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.2) {
			hits++
		}
	}
	if hits < 1500 || hits > 2500 {
		t.Errorf("Bool(0.2) hit %d/10000 times", hits)
	}
}

// TestChanceMatchesFloatCompare checks the integer probability rule
// against the float one it replaced: for every p, Hit(ChanceOf(p))
// decides every draw exactly as Float64() < p does, over a million
// draws and at the chance's boundary draws.
func TestChanceMatchesFloatCompare(t *testing.T) {
	ps := []float64{0, math.SmallestNonzeroFloat64, 1e-9, 1.0 / 3, 0.5,
		1 - 0x1p-53, 1, 1.5, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	pr := NewRNG(99)
	for i := 0; i < 10; i++ {
		ps = append(ps, pr.Float64())
	}
	for _, p := range ps {
		c := ChanceOf(p)
		if (c != 0) != (p > 0) {
			t.Errorf("ChanceOf(%v) = %d: zero must mean p <= 0", p, c)
		}
		// The draws k/2^53 on either side of the chance.
		for _, k := range []uint64{uint64(c) - 1, uint64(c), uint64(c) + 1} {
			if k >= 1<<53 {
				continue
			}
			if want, got := float64(k)/(1<<53) < p, k < uint64(c); got != want {
				t.Errorf("p = %v, draw %d/2^53: chance %d says %v, float compare %v", p, k, c, got, want)
			}
		}
		ref, r := NewRNG(5), NewRNG(5)
		for i := 0; i < 1<<20; i++ {
			if want, got := ref.Float64() < p, r.Hit(c); got != want {
				t.Fatalf("p = %v, draw %d: Hit = %v, Float64() < p = %v", p, i, got, want)
			}
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	f1 := r.Fork(1)
	r2 := NewRNG(7)
	f2 := r2.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forks with different labels matched %d/1000 draws", same)
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Node: 3, Addr: 0x40, Kind: Store}
	if got := a.String(); got != "n3 store 0x40" {
		t.Errorf("String() = %q", got)
	}
}
