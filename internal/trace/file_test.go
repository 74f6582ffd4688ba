package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"d2m/internal/mem"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []mem.Access{
		{Node: 0, Addr: 0x40, Kind: mem.Load},
		{Node: 3, Addr: 0x1_0000_0040, Kind: mem.IFetch},
		{Node: 7, Addr: 0xdeadbeef00, Kind: mem.Store},
	}
	for _, a := range want {
		if err := w.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.MaxNode() != 7 {
		t.Errorf("Len=%d MaxNode=%d", r.Len(), r.MaxNode())
	}
	for i, a := range want {
		if got := r.Next(); got != a {
			t.Errorf("record %d: got %v, want %v", i, got, a)
		}
	}
}

func TestReaderLoop(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append(mem.Access{Node: 1, Addr: 64})
	w.Flush()
	r, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r.Loop = true
	for i := 0; i < 5; i++ {
		if a := r.Next(); a.Node != 1 {
			t.Fatal("loop replay wrong")
		}
	}
}

func TestReaderNoLoopPanics(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append(mem.Access{Node: 1, Addr: 64})
	w.Flush()
	r, _ := ReadTrace(&buf)
	r.Next()
	defer func() {
		if recover() == nil {
			t.Error("no panic past end without Loop")
		}
	}()
	r.Next()
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("NOTATRACE!"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Header only, no records.
	if _, err := ReadTrace(bytes.NewReader(traceMagic[:])); err == nil {
		t.Error("empty trace accepted")
	}
	// Truncated record.
	trunc := append(append([]byte{}, traceMagic[:]...), 1, 2, 3)
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated record accepted")
	}
	// Invalid kind.
	bad := append(append([]byte{}, traceMagic[:]...), 0, 9, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Error("invalid kind accepted")
	}
}

// Property: any sequence of valid accesses round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		Node uint8
		Kind uint8
		Addr uint64
	}) bool {
		if len(raw) == 0 {
			return true
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		var want []mem.Access
		for _, x := range raw {
			a := mem.Access{Node: int(x.Node), Kind: mem.Kind(x.Kind % 3), Addr: mem.Addr(x.Addr)}
			want = append(want, a)
			w.Append(a)
		}
		w.Flush()
		r, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		for _, a := range want {
			if r.Next() != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
