package kernels

import (
	"sync"
	"testing"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// drain pulls n accesses from a stream.
func drain(t *testing.T, s trace.Stream, n int) []mem.Access {
	t.Helper()
	out := make([]mem.Access, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestRegistry(t *testing.T) {
	if len(All()) != 8 {
		t.Fatalf("registered %d kernels, want 8", len(All()))
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	for _, k := range All() {
		if k.Name() == "" || k.Description() == "" {
			t.Fatalf("kernel with empty name/description: %#v", k)
		}
		got, ok := ByName(k.Name())
		if !ok || got.Name() != k.Name() {
			t.Fatalf("ByName(%q) = %v, %v", k.Name(), got, ok)
		}
	}
	if _, ok := ByName("no-such-kernel"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
}

// Every kernel must be deterministic, emit only accesses for its own
// node, interleave instruction fetches, and mix reads and writes.
func TestKernelStreamBasics(t *testing.T) {
	const nodes, n = 4, 20000
	for _, k := range All() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			streams := k.Streams(nodes)
			if len(streams) != nodes {
				t.Fatalf("got %d streams, want %d", len(streams), nodes)
			}
			again := k.Streams(nodes)
			var fetches, loads, stores int
			for node, s := range streams {
				acc := drain(t, s, n)
				rep := drain(t, again[node], n)
				for i, a := range acc {
					if a != rep[i] {
						t.Fatalf("node %d access %d not deterministic: %v vs %v", node, i, a, rep[i])
					}
					if a.Node != node {
						t.Fatalf("node %d emitted access for node %d", node, a.Node)
					}
					switch a.Kind {
					case mem.IFetch:
						fetches++
					case mem.Load:
						loads++
					case mem.Store:
						stores++
					default:
						t.Fatalf("bad kind %v", a.Kind)
					}
				}
			}
			total := nodes * n
			if fetches < total/3 {
				t.Errorf("only %d/%d instruction fetches", fetches, total)
			}
			if loads == 0 || stores == 0 {
				t.Errorf("loads=%d stores=%d: want both nonzero", loads, stores)
			}
		})
	}
}

// Kernels loop: after enough accesses the stream must revisit early
// addresses (the computation restarts) rather than wandering off into
// unbounded address space.
func TestKernelStreamsLoop(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			s := k.Streams(2)[0]
			seen := make(map[mem.LineAddr]int)
			revisits := 0
			for i := 0; i < 3_000_000 && revisits == 0; i++ {
				a := s.Next()
				if a.Kind != mem.Load {
					continue
				}
				if prev, ok := seen[a.Addr.Line()]; ok && i-prev > 1000 {
					revisits++
				}
				seen[a.Addr.Line()] = i
			}
			if revisits == 0 {
				t.Fatalf("no data-line revisit in 3M accesses (footprint %d lines): stream does not loop", len(seen))
			}
		})
	}
}

// Address ranges stay within each kernel's windows: code in the code
// segment, data in the private/shared segments, no overlap between the
// per-kernel shared windows.
func TestKernelAddressRanges(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			for node, s := range k.Streams(3) {
				for i := 0; i < 30000; i++ {
					a := s.Next()
					switch {
					case a.Kind == mem.IFetch:
						if a.Addr < codeBase {
							t.Fatalf("node %d fetch outside code segment: %v", node, a)
						}
					case a.Addr >= codeBase:
						t.Fatalf("node %d data access inside code segment: %v", node, a)
					case a.Addr < dataBase:
						t.Fatalf("node %d data access below data segment: %v", node, a)
					}
				}
			}
		})
	}
}

// The LU kernel's reason to exist: successive accesses down a column
// are LD*8 bytes apart, so with LD=4096 they collide in any
// power-of-two-indexed cache — many distinct lines mapping to very few
// sets. Verify the real stream has that property.
func TestLUConflictPathology(t *testing.T) {
	k := LU{N: 64, LD: 4096}
	s := k.Streams(1)[0]
	const sets = 64 // a 64-set cache level
	setCount := make(map[uint64]int)
	lines := make(map[mem.LineAddr]bool)
	for i := 0; i < 200000; i++ {
		a := s.Next()
		if a.Kind == mem.IFetch {
			continue
		}
		lines[a.Addr.Line()] = true
		setCount[uint64(a.Addr.Line())%sets]++
	}
	// The matrix has N*N elements over N rows stride LD: column walks
	// touch N distinct lines that all share ROW-stride alignment. With
	// LD*8 = 32kB stride, line addresses differ by 512 lines = multiples
	// of 512, so at most 64/gcd collapse... count distinct sets used:
	used := 0
	for _, c := range setCount {
		if c > 0 {
			used++
		}
	}
	if used > sets/4 {
		t.Fatalf("LU stream spread over %d/%d sets; expected severe conflict concentration", used, sets)
	}
	if len(lines) < 200 {
		t.Fatalf("only %d distinct lines touched; pathology needs many lines in few sets", len(lines))
	}
}

// Scaling the node count partitions the work: with more nodes, each
// node's private footprint shrinks (matmul bands) while shared data is
// common to all.
func TestMatMulPartitioning(t *testing.T) {
	k := MatMul{N: 64, Block: 16}
	footprint := func(nodes int) int {
		s := k.Streams(nodes)[0]
		lines := make(map[mem.LineAddr]bool)
		for i := 0; i < 100000; i++ {
			a := s.Next()
			if a.Kind != mem.IFetch && a.Addr < sharedBase {
				lines[a.Addr.Line()] = true
			}
		}
		return len(lines)
	}
	one, four := footprint(1), footprint(4)
	if four >= one {
		t.Fatalf("private footprint did not shrink with partitioning: 1 node %d lines, 4 nodes %d", one, four)
	}
}

// Two nodes of the LU factorization both read the pivot row: the
// shared-address intersection must be nonempty (it is what makes the
// kernel exercise the coherence protocol).
func TestLUSharesPivotRow(t *testing.T) {
	k := LU{N: 32, LD: 64}
	streams := k.Streams(2)
	touched := make([]map[mem.LineAddr]bool, 2)
	for n, s := range streams {
		touched[n] = make(map[mem.LineAddr]bool)
		for i := 0; i < 50000; i++ {
			a := s.Next()
			if a.Kind == mem.Load {
				touched[n][a.Addr.Line()] = true
			}
		}
	}
	common := 0
	for l := range touched[0] {
		if touched[1][l] {
			common++
		}
	}
	if common == 0 {
		t.Fatal("LU nodes share no lines; pivot-row sharing is missing")
	}
}

// Stencil halo rows are shared between adjacent bands only: node 0 and
// node 3 of a 4-node run must not share data lines, while node 0 and
// node 1 must.
func TestStencilHaloSharing(t *testing.T) {
	k := Stencil{W: 256, H: 64}
	streams := k.Streams(4)
	touched := make([]map[mem.LineAddr]bool, 4)
	for n, s := range streams {
		touched[n] = make(map[mem.LineAddr]bool)
		for i := 0; i < 300000; i++ {
			a := s.Next()
			if a.Kind != mem.IFetch {
				touched[n][a.Addr.Line()] = true
			}
		}
	}
	overlap := func(a, b int) int {
		c := 0
		for l := range touched[a] {
			if touched[b][l] {
				c++
			}
		}
		return c
	}
	if overlap(0, 1) == 0 {
		t.Error("adjacent bands share no halo lines")
	}
	if o := overlap(0, 3); o != 0 {
		t.Errorf("distant bands share %d lines; bands should only overlap at halos", o)
	}
}

// The KV store mixes GETs and PUTs per GetFrac, and hot keys dominate.
func TestKVStoreMix(t *testing.T) {
	k := KVStore{Keys: 1 << 10, HotKeys: 1 << 5, GetFrac: 0.85}
	s := k.Streams(1)[0]
	var loads, stores int
	for i := 0; i < 100000; i++ {
		switch s.Next().Kind {
		case mem.Load:
			loads++
		case mem.Store:
			stores++
		}
	}
	// GETs are 2 loads; PUTs are 1 load + 3 stores. At 85% GET the
	// store fraction of data accesses is 0.15*3/(0.85*2+0.15*4) ≈ 0.19.
	frac := float64(stores) / float64(loads+stores)
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("store fraction %.2f, want ≈0.19", frac)
	}
}

// A probe of the hash join must read buckets written during build: the
// table addresses overlap between phases.
func TestHashJoinTableReuse(t *testing.T) {
	k := HashJoin{Buckets: 1 << 8, BuildTuples: 1 << 8, ProbeTuples: 1 << 8}
	s := k.Streams(1)[0]
	written := make(map[mem.LineAddr]bool)
	reread := 0
	for i := 0; i < 50000; i++ {
		a := s.Next()
		if a.Kind == mem.Store && a.Addr >= sharedBase {
			written[a.Addr.Line()] = true
		}
		if a.Kind == mem.Load && written[a.Addr.Line()] {
			reread++
		}
	}
	if reread == 0 {
		t.Fatal("probe phase never read build-phase writes")
	}
}

// BFS neighbor scans are sequential in the adjacency array but the
// visited-array reads scatter: distinct visited lines should be a large
// multiple of distinct adjacency regions per unit work.
func TestBFSScatter(t *testing.T) {
	k := BFS{Vertices: 1 << 12, Degree: 8}
	s := k.Streams(2)[1]
	lines := make(map[mem.LineAddr]bool)
	for i := 0; i < 100000; i++ {
		a := s.Next()
		if a.Kind != mem.IFetch {
			lines[a.Addr.Line()] = true
		}
	}
	if len(lines) < 2000 {
		t.Fatalf("BFS touched only %d lines; the scatter pattern is missing", len(lines))
	}
}

func TestParameterValidation(t *testing.T) {
	cases := []func(){
		func() { MatMul{N: 10, Block: 3}.Streams(1) },
		func() { LU{N: 8, LD: 4}.Streams(1) },
		func() { Stencil{W: 1, H: 1}.Streams(1) },
		func() { HashJoin{Buckets: 3, BuildTuples: 1, ProbeTuples: 1}.Streams(1) },
		func() { BFS{Vertices: 100, Degree: 4}.Streams(1) },
		func() { KVStore{Keys: 64, HotKeys: 128, GetFrac: 0.5}.Streams(1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid parameters not rejected", i)
				}
			}()
			fn()
		}()
	}
}

// SpMV gathers through the shared x vector: two nodes' streams overlap
// on x lines but never on their private CSR arrays.
func TestSpMVGatherSharing(t *testing.T) {
	k := SpMV{Rows: 1 << 8, NNZ: 4}
	streams := k.Streams(2)
	shared := make([]map[mem.LineAddr]bool, 2)
	private := make([]map[mem.LineAddr]bool, 2)
	for n, s := range streams {
		shared[n], private[n] = map[mem.LineAddr]bool{}, map[mem.LineAddr]bool{}
		for i := 0; i < 50000; i++ {
			a := s.Next()
			if a.Kind == mem.IFetch {
				continue
			}
			if a.Addr >= sharedBase {
				shared[n][a.Addr.Line()] = true
			} else {
				private[n][a.Addr.Line()] = true
			}
		}
	}
	common := 0
	for l := range shared[0] {
		if shared[1][l] {
			common++
		}
	}
	if common == 0 {
		t.Error("gather vector not shared between nodes")
	}
	for l := range private[0] {
		if private[1][l] {
			t.Fatalf("private CSR arrays overlap at %v", l)
		}
	}
}

// A merge-sort pass reads each element once and writes it once: loads
// and stores balance exactly, and the footprint is the two buffers.
func TestMergeSortBalance(t *testing.T) {
	k := MergeSort{N: 1 << 10}
	s := k.Streams(1)[0]
	var loads, stores int
	lines := map[mem.LineAddr]bool{}
	for i := 0; i < 60000; i++ {
		a := s.Next()
		switch a.Kind {
		case mem.Load:
			loads++
			lines[a.Addr.Line()] = true
		case mem.Store:
			stores++
			lines[a.Addr.Line()] = true
		}
	}
	if loads != stores {
		t.Fatalf("loads %d != stores %d: merge must move each key exactly once", loads, stores)
	}
	// Two ping-pong buffers of N keys = 2*N/8 lines.
	want := 2 * k.N / 8
	if len(lines) != want {
		t.Fatalf("footprint %d lines, want %d (two buffers)", len(lines), want)
	}
}

// TestConcurrentClones clones one mid-stream emitter of every kernel
// from several goroutines and fills each clone, the way concurrent warm
// restores clone a published snapshot's stream: every clone must read
// the same continuation, and under -race the generate closure's
// captures must be read-only.
func TestConcurrentClones(t *testing.T) {
	for _, k := range All() {
		src := k.Streams(2)[1]
		src.Fill(make([]mem.Access, 1001)) // mid-stream, maybe mid-batch
		want := make([]mem.Access, 4096)
		src.(trace.Cloner).Clone().Fill(want)

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]mem.Access, len(want))
				c := src.(trace.Cloner).Clone()
				for i := 0; i < len(got); i += 37 {
					c.Fill(got[i:min(i+37, len(got))])
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s: clone access %d = %v, want %v", k.Name(), i, got[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
