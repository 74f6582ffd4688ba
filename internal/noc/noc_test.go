package noc

import (
	"testing"

	"d2m/internal/energy"
)

func TestClassSizes(t *testing.T) {
	if Ctrl.Bytes() != 8 || Ctrl.Flits() != 1 {
		t.Errorf("Ctrl = %dB/%d flits", Ctrl.Bytes(), Ctrl.Flits())
	}
	if Data.Bytes() != 72 || Data.Flits() != 9 {
		t.Errorf("Data = %dB/%d flits", Data.Bytes(), Data.Flits())
	}
	if MD.Bytes() != 24 || MD.Flits() != 3 {
		t.Errorf("MD = %dB/%d flits", MD.Bytes(), MD.Flits())
	}
	if Class(99).Bytes() != 8 {
		t.Errorf("unknown class bytes = %d", Class(99).Bytes())
	}
}

func TestFabricAccounting(t *testing.T) {
	f := NewFabricTopology(nil, nil)
	if f.Topology().Name() != "crossbar" {
		t.Errorf("nil topology = %s, want crossbar", f.Topology().Name())
	}
	lat := f.SendEP(NodeEP(0), Hub, Ctrl, Base)
	if lat != TraversalCycles {
		t.Errorf("latency = %d, want %d", lat, TraversalCycles)
	}
	f.SendEP(NodeEP(0), Hub, Data, Base)
	f.SendEP(NodeEP(0), Hub, MD, D2MOnly)
	if f.Messages() != 3 {
		t.Errorf("Messages = %d", f.Messages())
	}
	if f.D2MMessages() != 1 {
		t.Errorf("D2MMessages = %d, want 1", f.D2MMessages())
	}
	if f.Bytes() != 8+72+24 {
		t.Errorf("Bytes = %d", f.Bytes())
	}
	if f.DataBytes() != 72 {
		t.Errorf("DataBytes = %d", f.DataBytes())
	}
	// A node-to-hub message crosses two crossbar links.
	if f.Hops() != 3*2 {
		t.Errorf("Hops = %d, want 6", f.Hops())
	}
}

func TestFabricChargesEnergy(t *testing.T) {
	m := energy.NewMeter(energy.Default22nm())
	f := NewFabricTopology(m, nil)
	f.SendEP(NodeEP(0), Hub, Data, Base)
	// 9 flits x 2 hops.
	if got := m.Count(energy.OpNoCFlit); got != 18 {
		t.Errorf("flit energy ops = %d, want 18", got)
	}
}
