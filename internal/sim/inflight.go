package sim

import "d2m/internal/mem"

// inflight is the engine's per-node in-flight miss table (the MSHR
// stand-in): line -> issue-clock time at which the miss's data returns.
// It replaces a map[mem.LineAddr]uint64 on the per-access hot path with
// an open-addressed, linear-probe hash table of fixed power-of-two
// capacity, allocated with its engine (every run builds its own) and
// reset in place when measurement starts, so steady state costs a few
// array probes per access and zero allocations.
//
// The replacement is semantically exact. The map's entries fall into
// two classes: live (ready > the node's issue clock now) and dead
// (ready <= now). A dead entry is indistinguishable from an absent one
// to the engine — a hit that finds it takes the same no-late-hit path
// a missing entry would — so the table is free to reclaim dead slots
// lazily (on insert) and wholesale (compaction) instead of deleting
// eagerly. Live entries are intrinsically bounded: the issue clock
// advances one cycle per access and an entry's ready time is at most
// the maximum miss latency ahead of it, so at most maxMissLatency
// entries are live at once — far below the table's capacity, keeping
// probe chains short. Should a pathological configuration exceed the
// bound anyway, the table grows (doubling) rather than losing entries.
type inflight struct {
	// key holds line+1 per slot; 0 marks a never-used slot (the probe
	// terminator). Slots never return to 0 between compactions, so
	// reclaiming a dead slot cannot break another entry's probe chain.
	key   []uint64
	ready []uint64
	used  int // occupied slots (live or dead) since the last compaction
	// maxReady is an upper bound on every entry's ready time. When the
	// node's issue clock has passed it, no entry can be live, so the
	// engine skips the probe entirely — on hit-dominated phases this
	// turns the per-hit lookup into a single compare.
	maxReady uint64

	// compaction scratch, allocated at the first compact and retained,
	// so steady-state compaction never allocates.
	scratchK, scratchR []uint64
}

// inflightCap is the initial table capacity, kept modest because cold
// runs build a fresh engine and pay for zeroing it. Live entries are
// bounded by the maximum miss latency (a few hundred cycles — DRAM
// round trips land well under missLatBuckets), so in practice the
// table never grows: compaction alone keeps half the slots free.
const inflightCap = 1024

func newInflight() inflight {
	return inflight{
		key:   make([]uint64, inflightCap),
		ready: make([]uint64, inflightCap),
	}
}

// reset empties the table in place (the start-of-measurement state).
func (t *inflight) reset() {
	clear(t.key)
	t.used = 0
	t.maxReady = 0
}

// slot returns the starting probe index for a line (Fibonacci hashing:
// the multiplier spreads the low line bits across the word, the shift
// keeps the well-mixed high bits).
func (t *inflight) slot(line mem.LineAddr) uint64 {
	return (uint64(line) * 0x9e3779b97f4a7c15) >> 32 & uint64(len(t.key)-1)
}

// lookup returns the ready time recorded for line. Callers treat a
// returned entry with ready <= now as absent.
func (t *inflight) lookup(line mem.LineAddr) (uint64, bool) {
	k := uint64(line) + 1
	mask := uint64(len(t.key) - 1)
	for i := t.slot(line); ; i = (i + 1) & mask {
		switch t.key[i] {
		case 0:
			return 0, false
		case k:
			return t.ready[i], true
		}
	}
}

// insert records that line's miss data arrives at ready. now is the
// node's issue clock, used to recognize dead slots worth reclaiming.
func (t *inflight) insert(line mem.LineAddr, ready, now uint64) {
	if ready > t.maxReady {
		t.maxReady = ready
	}
	if t.used*2 >= len(t.key) {
		t.compact(now)
	}
	k := uint64(line) + 1
	mask := uint64(len(t.key) - 1)
	i := t.slot(line)
	free := -1
	for {
		kk := t.key[i]
		if kk == k {
			break // the line missed again while tracked: refresh in place
		}
		if kk == 0 {
			if free >= 0 {
				i = uint64(free) // reuse a dead slot on the probe path
			} else {
				t.used++
			}
			break
		}
		if free < 0 && t.ready[i] <= now {
			free = int(i)
		}
		i = (i + 1) & mask
	}
	t.key[i] = k
	t.ready[i] = ready
}

// compact drops every dead entry (ready <= now), and doubles the
// capacity in the pathological case where live entries alone still
// fill half the table.
func (t *inflight) compact(now uint64) {
	if cap(t.scratchK) < len(t.key) {
		t.scratchK = make([]uint64, 0, len(t.key))
		t.scratchR = make([]uint64, 0, len(t.key))
	}
	liveK, liveR := t.scratchK[:0], t.scratchR[:0]
	for i, kk := range t.key {
		if kk != 0 && t.ready[i] > now {
			liveK = append(liveK, kk)
			liveR = append(liveR, t.ready[i])
		}
	}
	if len(liveK)*2 >= len(t.key) {
		n := len(t.key) * 2
		t.key = make([]uint64, n)
		t.ready = make([]uint64, n)
		t.scratchK = make([]uint64, 0, n)
		t.scratchR = make([]uint64, 0, n)
	} else {
		clear(t.key)
	}
	t.used = 0
	mask := uint64(len(t.key) - 1)
	for j, kk := range liveK {
		i := t.slot(mem.LineAddr(kk - 1))
		for t.key[i] != 0 {
			i = (i + 1) & mask
		}
		t.key[i] = kk
		t.ready[i] = liveR[j]
		t.used++
	}
}
