// Package kernels provides deterministic algorithmic workloads: real
// computations (matrix factorization, joins, graph traversal, ...) whose
// memory access streams are derived from the algorithms' actual index
// arithmetic rather than from statistical models. They complement the
// calibrated generators in internal/workloads with a ground-truth axis:
// the LU kernel, for example, reproduces §IV-D's conflict pathology from
// first principles (an in-place factorization over a matrix with a
// power-of-two leading dimension).
//
// Each kernel yields per-node streams that partition the computation;
// streams restart the computation when it completes, so they are
// infinite as the simulation engine requires. Every kernel interleaves
// instruction fetches from a small hot loop body with its data accesses,
// so the L1-I behaves realistically.
package kernels

import (
	"fmt"
	"slices"
	"sort"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// Kernel describes one algorithmic workload.
type Kernel interface {
	// Name identifies the kernel.
	Name() string
	// Description says what the computation is.
	Description() string
	// Streams returns one access stream per node; node i executes the
	// i-th partition of the computation, looping forever.
	Streams(nodes int) []trace.Stream
}

// Address-space layout: each kernel gets code at codeBase and data in
// per-kernel windows; per-node private partitions are offset by
// nodeStride.
const (
	codeBase   = 0x7_0000_0000
	dataBase   = 0x1_0000_0000
	sharedBase = 0x6_0000_0000
	nodeStride = 0x0400_0000 // 64MB per node partition
)

// emitter is the common plumbing: a kernel's generate callback pushes
// one batch of data accesses via load/store, and the stream hands them
// out in order, interleaving an instruction fetch before each. The
// fetches walk the kernel's hot loop body cyclically. The kernel's
// mutable loop state lives in st, a value of type S; generate closes
// over immutable values only, so a copy of the emitter (Clone) is an
// independent stream.
type emitter[S any] struct {
	node     int
	code     mem.LineAddr
	codeLen  int // loop body length in lines
	pc       int
	pending  []mem.Access
	pos      int
	fetched  bool // a fetch already preceded the pending access
	st       S
	generate func(e *emitter[S], st *S) // refills pending with one batch
}

func newEmitter[S any](node, kernelID, codeLines int, st S, gen func(*emitter[S], *S)) *emitter[S] {
	return &emitter[S]{
		node:     node,
		code:     (mem.Addr(codeBase) + mem.Addr(kernelID)*0x10_0000).Line(),
		codeLen:  codeLines,
		st:       st,
		generate: gen,
	}
}

// load/store build the batch.
func (e *emitter[S]) load(a mem.Addr) {
	e.pending = append(e.pending, mem.Access{Node: e.node, Addr: a, Kind: mem.Load})
}
func (e *emitter[S]) store(a mem.Addr) {
	e.pending = append(e.pending, mem.Access{Node: e.node, Addr: a, Kind: mem.Store})
}

// Next implements trace.Stream: a Fill of one access.
func (e *emitter[S]) Next() mem.Access {
	var buf [1]mem.Access
	e.Fill(buf[:])
	return buf[0]
}

// Fill implements trace.Stream: it interleaves one instruction fetch
// before every data access, walking the loop body cyclically. Kernel
// streams are infinite, so it fills the whole buffer.
func (e *emitter[S]) Fill(buf []mem.Access) int {
	for i := range buf {
		if e.pos >= len(e.pending) {
			e.pending = e.pending[:0]
			e.pos = 0
			for len(e.pending) == 0 {
				e.generate(e, &e.st)
			}
		}
		if !e.fetched {
			e.fetched = true
			buf[i] = mem.Access{Node: e.node, Addr: (e.code + mem.LineAddr(e.pc)).Addr(), Kind: mem.IFetch}
			e.pc = (e.pc + 1) % e.codeLen
			continue
		}
		e.fetched = false
		buf[i] = e.pending[e.pos]
		e.pos++
	}
	return len(buf)
}

// Clone implements trace.Cloner: a copy of the emitter, its loop state
// included, with its own pending batch.
func (e *emitter[S]) Clone() trace.Stream {
	cp := *e
	cp.pending = slices.Clone(e.pending)
	return &cp
}

// registry of kernels.
var registry []Kernel

// All returns every kernel.
func All() []Kernel {
	out := make([]Kernel, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the named kernel.
func ByName(name string) (Kernel, bool) {
	for _, k := range registry {
		if k.Name() == name {
			return k, true
		}
	}
	return nil, false
}

// Names returns the kernel names, sorted.
func Names() []string {
	var out []string
	for _, k := range registry {
		out = append(out, k.Name())
	}
	sort.Strings(out)
	return out
}

func register(k Kernel) { registry = append(registry, k) }

func init() {
	register(MatMul{N: 96, Block: 16})
	register(LU{N: 128, LD: 4096})
	register(Stencil{W: 256, H: 64})
	register(HashJoin{Buckets: 1 << 14, BuildTuples: 1 << 13, ProbeTuples: 1 << 14})
	register(BFS{Vertices: 1 << 14, Degree: 8})
	register(KVStore{Keys: 1 << 13, HotKeys: 1 << 7, GetFrac: 0.85})
	register(SpMV{Rows: 1 << 12, NNZ: 12})
	register(MergeSort{N: 1 << 15})
}

// check panics on an invalid kernel parameterization.
func check(ok bool, format string, args ...interface{}) {
	if !ok {
		panic("kernels: " + fmt.Sprintf(format, args...))
	}
}
