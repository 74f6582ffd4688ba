package kernels

import (
	"fmt"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// KVStore is an in-memory key-value store serving a skewed GET/PUT mix:
// an open-addressed shared table of 64-byte slots, a hot set absorbing
// 90% of operations, and a per-node sequential append log for PUTs —
// the paper's database/server pattern (tpc-c, memcached) with the skew
// made explicit. The hot set is read-mostly shared (replication's
// target); PUTs to it force the shared-write protocol path.
type KVStore struct {
	Keys    int     // table slots (power of two)
	HotKeys int     // hot-set size (power of two)
	GetFrac float64 // fraction of operations that are GETs
}

// Name implements Kernel.
func (KVStore) Name() string { return "kvstore" }

// Description implements Kernel.
func (k KVStore) Description() string {
	return fmt.Sprintf("key-value store, %d slots, %d hot, %.0f%% GET, per-node append log",
		k.Keys, k.HotKeys, k.GetFrac*100)
}

// Streams implements Kernel.
func (k KVStore) Streams(nodes int) []trace.Stream {
	check(k.Keys > 0 && k.Keys&(k.Keys-1) == 0, "kvstore: Keys=%d not a power of two", k.Keys)
	check(k.HotKeys > 0 && k.HotKeys <= k.Keys, "kvstore: HotKeys=%d out of range", k.HotKeys)
	check(k.GetFrac >= 0 && k.GetFrac <= 1, "kvstore: GetFrac=%v", k.GetFrac)
	out := make([]trace.Stream, nodes)
	for n := 0; n < nodes; n++ {
		out[n] = k.stream(n, nodes)
	}
	return out
}

func (k KVStore) stream(node, nodes int) trace.Stream {
	table := mem.Addr(sharedBase) + 0x500_0000 // 64B slots, shared
	logBuf := mem.Addr(dataBase) + mem.Addr(node)*nodeStride + 0x200_0000
	const logSlots = 1 << 14 // 1MB circular append log per node

	// The operation mix is a deterministic pseudo-random sequence: the
	// store's behaviour is statistical by nature (unlike the loop-nest
	// kernels), but reproducible per (node, seed).
	type state struct {
		rng    mem.RNG
		logSeq int
	}
	hot, get := mem.ChanceOf(0.9), mem.ChanceOf(k.GetFrac)
	return newEmitter(node, 5, 20, state{rng: *mem.NewRNG(0x6b76_0000 + uint64(node))}, func(e *emitter[state], st *state) {
		var key int
		if st.rng.Hit(hot) {
			key = st.rng.Intn(k.HotKeys)
		} else {
			key = k.HotKeys + st.rng.Intn(k.Keys-k.HotKeys)
		}
		slot := table + mem.Addr(hashKey(uint64(key))%uint64(k.Keys))*64
		if st.rng.Hit(get) {
			e.load(slot)     // header + key compare
			e.load(slot + 8) // value
			return
		}
		// PUT: read-modify-write the slot, then append to the log.
		e.load(slot)
		e.store(slot)
		e.store(slot + 8)
		e.store(logBuf + mem.Addr(st.logSeq%logSlots)*64)
		st.logSeq++
	})
}
