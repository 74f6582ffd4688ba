package core

import (
	"testing"
	"unsafe"
)

// TestLayoutSizes pins the packed widths of the simulator's per-line and
// per-region state: a Location holds the decoded 6-bit LI in 3 bytes, a
// data-store slot fits 24 bytes, and the region entries carry 16 such
// LIs with no padding holes. A field added or reordered carelessly shows
// up here before it shows up as host cache misses.
func TestLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(Location{}); got != 3 {
		t.Errorf("Location = %d bytes, want 3", got)
	}
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Errorf("slot = %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(nodeRegion{}); got > 88 {
		t.Errorf("nodeRegion = %d bytes, want <= 88", got)
	}
	if got := unsafe.Sizeof(dirRegion{}); got > 72 {
		t.Errorf("dirRegion = %d bytes, want <= 72", got)
	}
}

// widestConfigs returns the widest far-side and near-side geometries
// Validate accepts: 8 nodes, 8-way L1 and L2, a 32-way LLC or 4-way
// slices.
func widestConfigs() []Config {
	far := DefaultConfig()
	far.Nodes = 8
	far.L1Sets, far.L1Ways = 4, 8
	far.L2Sets, far.L2Ways = 4, 8
	far.LLCSets, far.LLCWays = 4, 32
	far.MD1Sets, far.MD1Ways = 2, 2
	far.MD2Sets, far.MD2Ways = 4, 4
	far.MD3Sets, far.MD3Ways = 8, 4
	far.CoherenceDebug = true
	near := far
	near.NearSide = true
	near.Replication = true
	near.SliceSets, near.SliceWays = 8, 4
	return []Config{far, near}
}

// TestLocationBounds checks that the narrow Location fields hold every
// node and way the widest valid configuration can name, that each value
// survives the 6-bit LI encoding, and that Validate still rejects one
// step past each bound (the bounds the narrow fields rely on).
func TestLocationBounds(t *testing.T) {
	for _, cfg := range widestConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("widest config (near=%v) rejected: %v", cfg.NearSide, err)
		}
	}
	roundTrip := func(l Location, ns bool) {
		t.Helper()
		if got := DecodeLI(EncodeLI(l, ns), ns); got != l {
			t.Errorf("DecodeLI(EncodeLI(%v, ns=%v)) = %v", l, ns, got)
		}
	}
	for n := 0; n < 8; n++ {
		if l := InNode(n); l.Kind != LocNode || int(l.Node) != n {
			t.Errorf("InNode(%d) = %+v", n, l)
		}
		roundTrip(InNode(n), false)
		roundTrip(InNode(n), true)
	}
	for w := 0; w < 8; w++ {
		if l := InL1(w); l.Kind != LocL1 || int(l.Way) != w {
			t.Errorf("InL1(%d) = %+v", w, l)
		}
		if l := InL2(w); l.Kind != LocL2 || int(l.Way) != w {
			t.Errorf("InL2(%d) = %+v", w, l)
		}
		roundTrip(InL1(w), false)
		roundTrip(InL2(w), true)
	}
	for w := 0; w < 32; w++ {
		if l := InLLC(w); l.Kind != LocLLC || l.Node != 0 || int(l.Way) != w {
			t.Errorf("InLLC(%d) = %+v", w, l)
		}
		roundTrip(InLLC(w), false)
	}
	for n := 0; n < 8; n++ {
		for w := 0; w < 4; w++ {
			if l := InSlice(n, w); l.Kind != LocLLC || int(l.Node) != n || int(l.Way) != w {
				t.Errorf("InSlice(%d, %d) = %+v", n, w, l)
			}
			roundTrip(InSlice(n, w), true)
		}
		if l := InSlice(n, WayUnresolved); int(l.Node) != n || l.Way != WayUnresolved {
			t.Errorf("InSlice(%d, WayUnresolved) = %+v", n, l)
		}
	}

	far, near := widestConfigs()[0], widestConfigs()[1]
	past := []struct {
		name   string
		base   Config
		mutate func(*Config)
	}{
		{"nodes 9", far, func(c *Config) { c.Nodes = 9 }},
		{"l1 ways 9", far, func(c *Config) { c.L1Ways = 9 }},
		{"l2 ways 9", far, func(c *Config) { c.L2Ways = 9 }},
		{"llc ways 33", far, func(c *Config) { c.LLCWays = 33 }},
		{"slice ways 5", near, func(c *Config) { c.SliceWays = 5 }},
	}
	for _, p := range past {
		c := p.base
		p.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a config past the LI bound", p.name)
		}
	}
}

// TestWidestConfigInvariants drives random traffic through the widest
// geometries so the protocol stores every node id and way number the
// narrow Location fields must hold, under the invariant auditor.
func TestWidestConfigInvariants(t *testing.T) {
	for _, cfg := range widestConfigs() {
		randomWorkload(t, cfg, 7, 20000, 96, 0.3, 0.3, 0.3)
	}
}
