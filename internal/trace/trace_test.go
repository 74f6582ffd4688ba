package trace

import (
	"bytes"
	"testing"

	"d2m/internal/mem"
)

func TestStreamFunc(t *testing.T) {
	n := 0
	s := StreamFunc(func() mem.Access {
		n++
		return mem.Access{Node: 2, Addr: mem.Addr(n * 64), Kind: mem.Load}
	})
	a := s.Next()
	b := s.Next()
	if a.Node != 2 || a.Addr != 64 || b.Addr != 128 {
		t.Errorf("StreamFunc produced %v then %v", a, b)
	}
}

func TestInterleaverRoundRobin(t *testing.T) {
	mk := func(node int) Stream {
		i := 0
		return StreamFunc(func() mem.Access {
			i++
			return mem.Access{Node: node, Addr: mem.Addr(i * 64)}
		})
	}
	iv := NewInterleaver([]Stream{mk(0), mk(1), mk(2)})
	if iv.Nodes() != 3 {
		t.Fatalf("Nodes() = %d", iv.Nodes())
	}
	for i := 0; i < 30; i++ {
		a := iv.Next()
		if a.Node != i%3 {
			t.Fatalf("access %d from node %d", i, a.Node)
		}
		// Each stream advances independently: the i-th turn of a node is
		// its (i/3+1)-th access.
		if a.Addr != mem.Addr((i/3+1)*64) {
			t.Fatalf("access %d addr %#x", i, uint64(a.Addr))
		}
	}
}

func TestInterleaverEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty stream list")
		}
	}()
	NewInterleaver(nil)
}

// TestOffset checks the node/address wrapper: its Fill equals its Next
// sequence, each access shifted, and a mid-stream Clone continues
// identically.
func TestOffset(t *testing.T) {
	mk := func() Stream {
		r, err := ReadTrace(bytes.NewReader(writeV2(t, randomAccesses(500, 4, 3))))
		if err != nil {
			t.Fatal(err)
		}
		r.Loop = true
		return r
	}
	const node, addr = 4, mem.Addr(1 << 36)
	plain, byNext, byFill := mk(), Offset(mk(), node, addr), Offset(mk(), node, addr)
	want := make([]mem.Access, 1200)
	for i := range want {
		a := plain.Next()
		a.Node += node
		a.Addr += addr
		want[i] = a
		if got := byNext.Next(); got != a {
			t.Fatalf("Next %d = %v, want %v", i, got, a)
		}
	}
	got := make([]mem.Access, len(want))
	// Ragged blocks, wrapping the looped trace.
	var clone Stream
	for done, k := 0, 1; done < len(got); k = k*3%97 + 1 {
		k = min(k, len(got)-done)
		if n := byFill.Fill(got[done : done+k]); n != k {
			t.Fatalf("Fill(%d) = %d", k, n)
		}
		done += k
		if clone == nil && done >= 300 {
			clone = byFill.(Cloner).Clone()
			for i := done; i < len(want); i++ {
				if a := clone.Next(); a != want[i] {
					t.Fatalf("clone access %d = %v, want %v", i, a, want[i])
				}
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Fill access %d = %v, want %v", i, got[i], want[i])
		}
	}
}
