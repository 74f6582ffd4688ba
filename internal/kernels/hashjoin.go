package kernels

import (
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// HashJoin is a two-phase hash join: each node builds its partition of
// the build relation into a shared chained hash table (random writes to
// a shared structure — write-shared regions, the protocol's hardest
// case), then probes with its partition of the probe relation
// (sequential reads of the probe side, random reads of the table,
// sequential writes of the output). The phases alternate forever,
// exercising the Private↔Shared reclassification transitions.
type HashJoin struct {
	Buckets     int // hash-table buckets (power of two)
	BuildTuples int // build-side tuples per node
	ProbeTuples int // probe-side tuples per node
}

// Name implements Kernel.
func (HashJoin) Name() string { return "hashjoin" }

// Description implements Kernel.
func (k HashJoin) Description() string {
	return fmt.Sprintf("chained hash join: %d shared buckets, %d build / %d probe tuples per node",
		k.Buckets, k.BuildTuples, k.ProbeTuples)
}

// Streams implements Kernel.
func (k HashJoin) Streams(nodes int) []trace.Stream {
	check(k.Buckets > 0 && k.Buckets&(k.Buckets-1) == 0, "hashjoin: Buckets=%d not a power of two", k.Buckets)
	check(k.BuildTuples > 0 && k.ProbeTuples > 0, "hashjoin: empty relations")
	out := make([]trace.Stream, nodes)
	for n := 0; n < nodes; n++ {
		out[n] = k.stream(n, nodes)
	}
	return out
}

// hashKey is the join's deterministic hash function (splitmix-style).
func hashKey(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func (k HashJoin) stream(node, nodes int) trace.Stream {
	table := mem.Addr(sharedBase) + 0x300_0000             // bucket heads, 8B each
	entries := table + mem.Addr(k.Buckets)*8               // chain entries, 24B each, shared
	priv := mem.Addr(dataBase) + mem.Addr(node)*nodeStride // relations + output
	build := priv
	probe := build + mem.Addr(k.BuildTuples)*32
	outBuf := probe + mem.Addr(k.ProbeTuples)*32

	type state struct {
		building bool
		t        int // tuple cursor within the current phase
		entrySeq int
		outSeq   int
	}
	return newEmitter(node, 3, 14, state{building: true, entrySeq: node * k.BuildTuples}, func(e *emitter[state], st *state) {
		t := st.t
		if st.building {
			// Read the tuple (two 8B fields of a 32B record), hash its
			// key, push a new chain entry at the bucket head.
			key := hashKey(uint64(node)<<32 | uint64(t))
			e.load(build + mem.Addr(t)*32)
			e.load(build + mem.Addr(t)*32 + 8)
			b := table + mem.Addr(key&uint64(k.Buckets-1))*8
			ent := entries + mem.Addr(st.entrySeq%(k.BuildTuples*nodes))*24
			e.load(b)    // old head
			e.store(ent) // entry.next = old head (same line as key/val)
			e.store(b)   // head = entry
			e.store(ent + 8)
			st.entrySeq++
			if st.t++; st.t == k.BuildTuples {
				st.t, st.building = 0, false
			}
			return
		}
		// Probe: read the probe tuple, walk the chain (1-2 entries with
		// a deterministic "match" pattern), append any match.
		key := hashKey(uint64(node)<<40 | uint64(t)*3)
		e.load(probe + mem.Addr(t)*32)
		b := table + mem.Addr(key&uint64(k.Buckets-1))*8
		e.load(b)
		hops := 1 + int(key>>60)&1
		for h := 0; h < hops; h++ {
			ent := entries + mem.Addr((key>>8+uint64(h))%uint64(k.BuildTuples*nodes))*24
			e.load(ent)
		}
		if key&7 == 0 { // ~1/8 selectivity
			e.store(outBuf + mem.Addr(st.outSeq%k.ProbeTuples)*16)
			st.outSeq++
		}
		if st.t++; st.t == k.ProbeTuples {
			st.t, st.building = 0, true
		}
	})
}
