// Package cluster turns a set of d2mserver scheduler processes into
// one service: a gateway consistent-hashes each submission's
// warm identity (d2m.CellKey.String) onto N shards and forwards it over
// the existing v1 HTTP/JSON wire format. Sharding by warm identity is
// the distributed form of the simulator's data-oriented premise — work
// lands next to the warm-snapshot state it reuses, so snapshot
// restores and single-flight coalescing keep working even though no
// state is shared between processes. The gateway owns peer lifecycle
// (readiness probing, draining, failover) and merges the shards'
// append-only result journals on replay so a fleet restart resumes
// from the union of what any shard completed.
package cluster

import (
	"fmt"
	"sort"
)

// ringHash is the placement hash: 64-bit FNV-1a through a
// splitmix64-style finalizer. FNV alone avalanches poorly on the short
// strings vnode labels and warm keys tend to be — without the mixer,
// 128 vnodes per peer still carve the ring into a handful of lopsided
// arcs. Both halves are inlined so placement is self-contained and
// stable across releases (the ring's layout is part of the fleet's
// behavior: changing it remaps warm identities away from their
// accumulated snapshot state).
func ringHash(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ringVnodes is the number of virtual nodes per peer: enough that a
// handful of shards split the key space within a few percent of evenly,
// cheap enough that rebuilding the ring on a membership change is
// negligible.
const ringVnodes = 128

// Ring is an immutable consistent-hash ring over peer names. Build a
// new one on every membership change (peers are few and vnodes cheap);
// lookups are lock-free.
type Ring struct {
	points []ringPoint // sorted by hash
	peers  int
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds a ring over the given peer names. An empty peer list
// yields an empty ring whose lookups return nothing.
func NewRing(peers []string) *Ring {
	r := &Ring{peers: len(peers)}
	for _, p := range peers {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(fmt.Sprintf("%s#%d", p, v)),
				peer: p,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		return pa.peer < pb.peer // deterministic on (vanishingly rare) collisions
	})
	return r
}

// Owner returns the peer owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct peers in ring order starting at
// key's successor point: the owner first, then the failover sequence a
// forwarder walks when the owner is unreachable. Every caller walking
// the same key sees the same sequence, so retries from different
// requests converge on the same fallback shard (keeping the coalescing
// and snapshot-reuse story intact even during failover).
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > r.peers {
		n = r.peers
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	owners := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			owners = append(owners, p)
		}
	}
	return owners
}
