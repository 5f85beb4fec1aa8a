package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Ring assigns every simulation point an owner replica by rendezvous
// (highest-random-weight) hashing: each member scores each key as
// hash(member, key), and the member with the highest score owns the key.
// Rendezvous hashing beats a vnode ring here on every axis that matters
// for a small replica fleet:
//
//   - load spread is statistically exact (each member wins each key with
//     probability 1/N, no vnode-count tuning, no arc-length variance);
//   - removing a member re-homes exactly the keys it owned (~1/N of the
//     space) and never moves a key between survivors — survivors' relative
//     scores are untouched;
//   - the full score order of a key is a deterministic failover preference
//     list every node computes identically (Owners).
//
// Lookup is O(N) per key, which for a handful of replicas is cheaper than
// a vnode ring's binary search — and point routing happens once per
// simulation, so the hash cost is noise next to the work it places.
//
// The Ring is immutable after construction; membership is static (-peers),
// and liveness is a routing-time filter (Owners preference order plus
// health checks), not a ring mutation — so point ownership is a pure
// function of the member list, identical on every node.
type Ring struct {
	nodes []string // sorted
	seeds []uint64 // per-node score seed, parallel to nodes
}

// NewRing builds a ring over the given member names (order-insensitive:
// names are sorted first so every node builds the identical ring).
func NewRing(nodes []string) *Ring {
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	r := &Ring{nodes: sorted, seeds: make([]uint64, len(sorted))}
	for i, n := range sorted {
		r.seeds[i] = hash64(n)
	}
	return r
}

// score is one member's rendezvous weight for one key: the member's name
// hash mixed with the key hash through a 64-bit finalizer, so each
// (member, key) pair gets an independent uniform draw without hashing the
// concatenated strings per member.
func score(seed, keyHash uint64) uint64 {
	x := seed ^ keyHash
	// splitmix64 finalizer: full-avalanche mixing of the combined bits.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the member owning a key.
func (r *Ring) Owner(key string) string {
	if len(r.nodes) == 0 {
		return ""
	}
	kh := hash64(key)
	best, bestScore := 0, score(r.seeds[0], kh)
	for i := 1; i < len(r.seeds); i++ {
		if s := score(r.seeds[i], kh); s > bestScore {
			best, bestScore = i, s
		}
	}
	return r.nodes[best]
}

// Owners returns up to n members in the key's preference order: the owner
// first, then each runner-up by descending score. A caller failing over
// tries them in this order, so every node agrees on which survivor
// inherits a dead owner's points.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.nodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	kh := hash64(key)
	type ranked struct {
		score uint64
		node  int
	}
	order := make([]ranked, len(r.nodes))
	for i := range r.nodes {
		order[i] = ranked{score(r.seeds[i], kh), i}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].node < order[j].node
	})
	out := make([]string, n)
	for i := range out {
		out[i] = r.nodes[order[i].node]
	}
	return out
}

// hash64 maps a string to a uniform 64-bit draw: the first 8 bytes of its
// SHA-256.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
