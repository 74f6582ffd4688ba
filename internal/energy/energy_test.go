package energy

import (
	"testing"
	"testing/quick"
)

func TestDefaultModelOrdering(t *testing.T) {
	m := Default22nm()
	// The relative ordering of costs is what produces the paper's EDP
	// shape; pin it down.
	if !(m.Cost(OpDRAM) > m.Cost(OpLLCTag)) {
		t.Error("DRAM must dominate LLC access")
	}
	if !(m.Cost(OpLLCTag) > m.Cost(OpL1Tag)) {
		t.Error("LLC tag search must cost more than L1 tag search")
	}
	if !(m.Cost(OpL1Tag) > m.Cost(OpMD1)) {
		t.Error("MD1 must be cheaper than an L1 tag search (it replaces TLB+tags)")
	}
	if !(m.Cost(OpLLCData) < m.Cost(OpLLCTag)) {
		t.Error("a direct LLC data-way access must beat a 32-way tag search")
	}
	for op := Op(0); op < opCount; op++ {
		if m.Cost(op) <= 0 {
			t.Errorf("op %v has non-positive cost", op)
		}
	}
}

func TestMeterDynamic(t *testing.T) {
	m := NewMeter(Default22nm())
	m.Do(OpL1Data, 3)
	m.Do(OpDRAM, 1)
	want := 3*Default22nm().Cost(OpL1Data) + Default22nm().Cost(OpDRAM)
	if got := m.DynamicPJ(); got != want {
		t.Errorf("DynamicPJ = %v, want %v", got, want)
	}
	if m.Count(OpL1Data) != 3 {
		t.Errorf("Count = %d, want 3", m.Count(OpL1Data))
	}
}

func TestMeterStaticAndEDP(t *testing.T) {
	m := NewMeter(Default22nm())
	m.AddLeakage(2.5)
	m.AddLeakage(0.5)
	if got := m.StaticPJ(1); got != 3.0 {
		t.Errorf("StaticPJ(1) = %v, want 3", got)
	}
	if got := m.StaticPJ(100); got != 300 {
		t.Errorf("StaticPJ(100) = %v, want 300", got)
	}
	m.Do(OpTLB, 10)
	total := m.TotalPJ(100)
	if total != m.DynamicPJ()+300 {
		t.Errorf("TotalPJ = %v", total)
	}
	if got := m.EDP(100); got != total*100 {
		t.Errorf("EDP = %v, want %v", got, total*100)
	}
}

func TestMeterMonotone(t *testing.T) {
	f := func(ops []uint8, cycles uint16) bool {
		m := NewMeter(Default22nm())
		prev := 0.0
		for _, o := range ops {
			m.Do(Op(o%uint8(opCount)), 1)
			cur := m.DynamicPJ()
			if cur < prev {
				return false
			}
			prev = cur
		}
		return m.TotalPJ(uint64(cycles)) >= m.DynamicPJ()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if OpL1Tag.String() != "l1-tag" {
		t.Errorf("OpL1Tag.String() = %q", OpL1Tag.String())
	}
	if OpDRAM.String() != "dram" {
		t.Errorf("OpDRAM.String() = %q", OpDRAM.String())
	}
	if Op(200).String() != "op(200)" {
		t.Errorf("unknown op String() = %q", Op(200).String())
	}
}

func TestBreakdownPJ(t *testing.T) {
	m := NewMeter(Default22nm())
	if len(m.BreakdownPJ()) != 0 {
		t.Error("fresh meter has a non-empty breakdown")
	}
	m.Do(OpL1Data, 10)
	m.Do(OpDRAM, 2)
	bd := m.BreakdownPJ()
	if len(bd) != 2 {
		t.Fatalf("breakdown has %d entries", len(bd))
	}
	if bd["l1-data"] != 10*Default22nm().Cost(OpL1Data) {
		t.Errorf("l1-data = %v", bd["l1-data"])
	}
	if bd["dram"] != 2*Default22nm().Cost(OpDRAM) {
		t.Errorf("dram = %v", bd["dram"])
	}
}

func TestResetCounts(t *testing.T) {
	m := NewMeter(Default22nm())
	m.AddLeakage(5)
	m.Do(OpTLB, 100)
	m.ResetCounts()
	if m.DynamicPJ() != 0 {
		t.Error("counts survived reset")
	}
	if m.StaticPJ(1) != 5 {
		t.Error("leakage lost on reset")
	}
}

func TestLeakageConstantsSane(t *testing.T) {
	// Bigger structures must leak more.
	if !(LeakL1 < LeakL2 && LeakL2 < LeakLLCSlice) {
		t.Error("cache leakage not monotone in size")
	}
	if !(LeakMD1 < LeakMD2 && LeakMD2 < LeakMD3) {
		t.Error("metadata leakage not monotone in size")
	}
	// The whole metadata hierarchy must leak less than the LLC it
	// manages (the paper's overhead argument).
	if LeakMD1*2+LeakMD2+LeakMD3 > LeakLLCSlice {
		t.Error("metadata leakage exceeds an LLC slice")
	}
}
