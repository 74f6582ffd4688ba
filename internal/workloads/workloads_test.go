package workloads

import (
	"sync"
	"testing"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

func TestCatalogShape(t *testing.T) {
	if got := len(All()); got != 45 {
		t.Errorf("catalog has %d benchmarks, want 45", got)
	}
	counts := map[string]int{}
	for _, sp := range All() {
		counts[sp.Suite]++
	}
	want := map[string]int{
		SuiteParallel: 13, SuiteHPC: 13, SuiteMobile: 14,
		SuiteServer: 4, SuiteDatabase: 1,
	}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %s has %d benchmarks, want %d", suite, counts[suite], n)
		}
	}
	for _, suite := range Suites() {
		if len(BySuite(suite)) != want[suite] {
			t.Errorf("BySuite(%s) returned %d", suite, len(BySuite(suite)))
		}
	}
}

func TestByName(t *testing.T) {
	sp, ok := ByName("canneal")
	if !ok || sp.Name != "canneal" || sp.Suite != SuiteParallel {
		t.Fatalf("ByName(canneal) = %+v, %v", sp, ok)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName accepted a bogus name")
	}
	if len(Names()) != 45 {
		t.Errorf("Names() returned %d", len(Names()))
	}
}

func TestStreamsDeterministic(t *testing.T) {
	sp, _ := ByName("blackscholes")
	a := sp.Streams(4)
	b := sp.Streams(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 1000; j++ {
			if a[i].Next() != b[i].Next() {
				t.Fatalf("stream %d diverged at access %d", i, j)
			}
		}
	}
}

// TestConcurrentClones clones one stream from several goroutines and
// fills each clone, the way concurrent warm restores clone a published
// snapshot's stream: every clone must read the same continuation, and
// under -race the shared spec and chance table must be read-only.
func TestConcurrentClones(t *testing.T) {
	sp, _ := ByName("tpc-c")
	src := sp.Streams(2)[1].(*stream)
	src.Fill(make([]mem.Access, 1001)) // mid-stream, maybe a pending access
	want := make([]mem.Access, 4096)
	src.Clone().(*stream).Fill(want)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]mem.Access, len(want))
			c := src.Clone().(*stream)
			for i := 0; i < len(got); i += 37 {
				c.Fill(got[i:min(i+37, len(got))])
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("clone access %d = %v, want %v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStreamsDisjointPrivateData(t *testing.T) {
	sp, _ := ByName("mix1") // Server: no sharing at all
	streams := sp.Streams(4)
	owner := map[mem.LineAddr]int{}
	for i, st := range streams {
		for j := 0; j < 20000; j++ {
			a := st.Next()
			if a.Kind.IsInstr() {
				continue
			}
			line := a.Addr.Line()
			if prev, seen := owner[line]; seen && prev != i {
				t.Fatalf("data line %v touched by nodes %d and %d in a no-sharing mix", line, prev, i)
			}
			owner[line] = i
		}
	}
}

func TestSharedCodeIsShared(t *testing.T) {
	sp, _ := ByName("tpc-c")
	streams := sp.Streams(2)
	seen := [2]map[mem.LineAddr]bool{{}, {}}
	for i, st := range streams {
		for j := 0; j < 50000; j++ {
			a := st.Next()
			if a.Kind.IsInstr() {
				seen[i][a.Addr.Line()] = true
			}
		}
	}
	common := 0
	for l := range seen[0] {
		if seen[1][l] {
			common++
		}
	}
	if common == 0 {
		t.Error("shared-code benchmark produced no common instruction lines")
	}
}

func TestAccessMixRatios(t *testing.T) {
	sp, _ := ByName("barnes")
	st := sp.Streams(1)[0]
	var instr, data, writes int
	for i := 0; i < 100000; i++ {
		a := st.Next()
		if a.Kind.IsInstr() {
			instr++
		} else {
			data++
			if a.Kind.IsWrite() {
				writes++
			}
		}
	}
	if instr == 0 || data == 0 {
		t.Fatal("degenerate access mix")
	}
	ratio := float64(data) / float64(instr)
	if ratio < sp.DataFrac*0.8 || ratio > sp.DataFrac*1.2 {
		t.Errorf("data/instr ratio = %.2f, want ~%.2f", ratio, sp.DataFrac)
	}
	wf := float64(writes) / float64(data)
	if wf <= 0 || wf > 0.6 {
		t.Errorf("write fraction = %.2f out of plausible range", wf)
	}
}

func TestAddressWindows(t *testing.T) {
	sp, _ := ByName("facesim")
	st := sp.Streams(3)[2]
	for i := 0; i < 50000; i++ {
		a := st.Next()
		addr := uint64(a.Addr)
		switch {
		case a.Kind.IsInstr():
			if addr < codeBase || addr >= sharedBase {
				t.Fatalf("instruction fetch outside the code window: %#x", addr)
			}
		default:
			if addr >= codeBase && addr < sharedBase {
				t.Fatalf("data access inside the code window: %#x", addr)
			}
			if addr < codeBase && addr >= privateBase+8*privateSpan {
				t.Fatalf("private data outside every node window: %#x", addr)
			}
		}
	}
}

func TestInterleaver(t *testing.T) {
	sp, _ := ByName("fft")
	iv := trace.NewInterleaver(sp.Streams(4))
	if iv.Nodes() != 4 {
		t.Fatalf("Nodes() = %d", iv.Nodes())
	}
	for i := 0; i < 100; i++ {
		a := iv.Next()
		if a.Node != i%4 {
			t.Fatalf("access %d from node %d, want round-robin %d", i, a.Node, i%4)
		}
	}
}

func TestInterleaverPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty interleaver")
		}
	}()
	trace.NewInterleaver(nil)
}

func TestOutlierShapes(t *testing.T) {
	canneal, _ := ByName("canneal")
	blacks, _ := ByName("blackscholes")
	if canneal.PrivateWS <= 4*blacks.PrivateWS {
		t.Error("canneal working set not exceptionally large")
	}
	sc, _ := ByName("streamcluster")
	if sc.StreamFrac < 0.3 {
		t.Error("streamcluster not streaming-dominated")
	}
	lu, _ := ByName("lu_cb")
	if lu.WarmStrideLines&(lu.WarmStrideLines-1) != 0 || lu.WarmStrideLines < 1024 {
		t.Error("lu_cb warm stride is not a large power of two")
	}
	for _, name := range serverNames {
		sp, _ := ByName(name)
		if sp.SharedFrac != 0 || sp.SharedCode {
			t.Errorf("%s: server mixes must not share", name)
		}
	}
	db, _ := ByName("tpc-c")
	mob, _ := ByName("cnn")
	if db.CodeBytes <= mob.CodeBytes {
		t.Error("database instruction footprint should exceed mobile's")
	}
}
