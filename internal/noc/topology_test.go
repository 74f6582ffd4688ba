package noc

import (
	"testing"

	"d2m/internal/energy"
)

func TestCrossbarHops(t *testing.T) {
	x := Crossbar{}
	if x.Hops(NodeEP(0), NodeEP(0)) != 0 {
		t.Error("self hops != 0")
	}
	if x.Hops(NodeEP(0), NodeEP(7)) != 2 || x.Hops(NodeEP(3), Hub) != 2 {
		t.Error("crossbar distinct endpoints must be 2 hops")
	}
	if x.Name() != "crossbar" {
		t.Error("name")
	}
}

func TestRingHops(t *testing.T) {
	r := Ring{Nodes: 8} // stops: n0..n7, hub
	if r.Hops(NodeEP(0), NodeEP(0)) != 0 {
		t.Error("self")
	}
	if r.Hops(NodeEP(0), NodeEP(1)) != 1 {
		t.Error("neighbors")
	}
	if got := r.Hops(NodeEP(0), NodeEP(7)); got != 2 {
		t.Errorf("n0..n7 around the hub = %d, want 2", got)
	}
	if got := r.Hops(NodeEP(0), Hub); got != 1 {
		t.Errorf("n0-hub = %d, want 1 (hub adjacent)", got)
	}
	if got := r.Hops(NodeEP(4), Hub); got != 4 {
		t.Errorf("n4-hub = %d, want 4", got)
	}
	// Symmetry.
	for a := -1; a < 8; a++ {
		for b := -1; b < 8; b++ {
			if r.Hops(Endpoint(a), Endpoint(b)) != r.Hops(Endpoint(b), Endpoint(a)) {
				t.Fatalf("asymmetric ring hops %d-%d", a, b)
			}
		}
	}
}

func TestMeshHops(t *testing.T) {
	m := Mesh{W: 4, H: 2}
	if m.Hops(NodeEP(0), NodeEP(3)) != 3 {
		t.Error("row distance")
	}
	if m.Hops(NodeEP(0), NodeEP(4)) != 1 {
		t.Error("column distance")
	}
	if m.Hops(NodeEP(0), NodeEP(7)) != 4 {
		t.Error("diagonal distance")
	}
	if m.Hops(NodeEP(3), Hub) != 1 {
		t.Error("hub adjacency")
	}
	if m.Hops(NodeEP(4), Hub) != 5 {
		t.Error("far corner to hub")
	}
	if m.Name() != "mesh-4x2" {
		t.Error("name")
	}
}

func TestSendEP(t *testing.T) {
	meter := energy.NewMeter(energy.Default22nm())
	f := NewFabricTopology(meter, Mesh{W: 4, H: 2})
	// Local delivery: free, uncounted.
	if lat := f.SendEP(NodeEP(2), NodeEP(2), Data, Base); lat != 0 {
		t.Errorf("self send latency %d", lat)
	}
	if f.Messages() != 0 {
		t.Error("self send counted")
	}
	// One-hop neighbors are cheaper than crossing the mesh.
	near := f.SendEP(NodeEP(0), NodeEP(4), Ctrl, Base)
	far := f.SendEP(NodeEP(4), Hub, Ctrl, Base)
	if near >= far {
		t.Errorf("near (%d) not cheaper than far (%d)", near, far)
	}
	if f.Messages() != 2 {
		t.Errorf("messages = %d", f.Messages())
	}
	if f.Hops() != 1+5 {
		t.Errorf("hops = %d, want 6", f.Hops())
	}
	// Energy scales with flits x hops.
	if got := meter.Count(energy.OpNoCFlit); got != 1*1+1*5 {
		t.Errorf("flit-hops = %d, want 6", got)
	}
}

func TestDirEndpoint(t *testing.T) {
	f := NewFabricTopology(nil, nil)
	if lat := f.SendEP(Hub, DirEP, Ctrl, Base); lat != routerCycles+cyclesPerHop {
		t.Errorf("hub-dir latency %d", lat)
	}
	if f.Hops() != 1 {
		t.Errorf("hub-dir hops = %d", f.Hops())
	}
	f2 := NewFabricTopology(nil, Mesh{W: 4, H: 2})
	// node -> dir = node -> hub + 1.
	if got, want := f2.hopsBetween(NodeEP(4), DirEP), f2.hopsBetween(NodeEP(4), Hub)+1; got != want {
		t.Errorf("node-dir hops = %d, want %d", got, want)
	}
	if f2.hopsBetween(DirEP, DirEP) != 0 {
		t.Error("dir self not 0")
	}
}

func TestTorusHops(t *testing.T) {
	tor := Torus{W: 4, H: 2}
	mesh := Mesh{W: 4, H: 2}
	// Wrap-around: corner to corner is 1+1 on the torus, 3+1 on the mesh.
	if got := tor.Hops(NodeEP(0), NodeEP(7)); got != 2 {
		t.Errorf("torus corner-corner = %d, want 2", got)
	}
	if got := mesh.Hops(NodeEP(0), NodeEP(7)); got != 4 {
		t.Errorf("mesh corner-corner = %d, want 4", got)
	}
	// The torus never exceeds the mesh, and both are symmetric with
	// zero self-distance.
	eps := []Endpoint{Hub, NodeEP(0), NodeEP(1), NodeEP(2), NodeEP(3), NodeEP(4), NodeEP(5), NodeEP(6), NodeEP(7)}
	for _, a := range eps {
		for _, b := range eps {
			th, mh := tor.Hops(a, b), mesh.Hops(a, b)
			if th > mh {
				t.Errorf("torus(%v,%v)=%d > mesh=%d", a, b, th, mh)
			}
			if th != tor.Hops(b, a) {
				t.Errorf("torus not symmetric at (%v,%v)", a, b)
			}
			if a == b && th != 0 {
				t.Errorf("torus self-distance %d", th)
			}
		}
	}
	if (Torus{W: 4, H: 2}).Name() != "torus-4x2" {
		t.Error("torus name")
	}
}
