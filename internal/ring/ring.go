// Package ring is the consistent-hash ring shared by the Cassandra and
// object-store backends: the key hash, seed-derived vnode tokens, and the
// two clockwise placement strategies. A ring is a pure function of its
// member list and token stream, so a backend's placement depends only on
// (topology, seed) — never on failures, which move traffic but not the
// ring.
package ring

import (
	"sort"

	"cloudbench/internal/kv"
)

// VNodes is the number of virtual-node tokens each backend gives a host.
const VNodes = 16

// Token is a position on the hash ring.
type Token uint64

// Hash maps a key to its token: FNV-1a over the key bytes followed by a
// murmur-style 64-bit finalizer for avalanche, standing in for Cassandra's
// Murmur3Partitioner and Swift's md5-of-path.
func Hash(key kv.Key) Token {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	// fmix64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return Token(h)
}

// entry is one virtual node: a token owned by a member of a zone.
type entry[M comparable] struct {
	token  Token
	member M
	zone   int
}

// Ring is the sorted token ring over members of type M (a backend's host
// handle).
type Ring[M comparable] struct {
	entries []entry[M]
}

// New assigns every member vnodes tokens — member-major, vnode-minor, each
// the next randToken draw — and sorts the ring. zoneOf is read once per
// member; PerZone places by the zones recorded here.
func New[M comparable](members []M, zoneOf func(M) int, vnodes int, randToken func() uint64) *Ring[M] {
	r := &Ring[M]{entries: make([]entry[M], 0, len(members)*vnodes)}
	for _, m := range members {
		zone := zoneOf(m)
		for v := 0; v < vnodes; v++ {
			r.entries = append(r.entries, entry[M]{token: Token(randToken()), member: m, zone: zone})
		}
	}
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].token < r.entries[j].token })
	return r
}

// walk is the clockwise distinct-member walk both strategies are built on:
// starting at the first vnode at or after t, it takes each member not
// already taken whose zone admit accepts (nil accepts every zone), until
// it holds want members or the ring has been circled once. admit runs only
// for members not yet placed, so it may count what it accepts. An empty
// ring places nothing and returns nil.
func (r *Ring[M]) walk(t Token, want int, admit func(zone int) bool) []M {
	n := len(r.entries)
	if n == 0 {
		return nil
	}
	out := make([]M, 0, want)
	start := sort.Search(n, func(i int) bool { return r.entries[i].token >= t })
walk:
	for i := 0; i < n && len(out) < want; i++ {
		e := &r.entries[(start+i)%n]
		for _, m := range out {
			if m == e.member {
				continue walk
			}
		}
		if admit == nil || admit(e.zone) {
			out = append(out, e.member)
		}
	}
	return out
}

// Simple is SimpleStrategy placement: the first rf distinct members
// clockwise from t. The first member returned is the paper's "main
// replica".
func (r *Ring[M]) Simple(t Token, rf int) []M {
	return r.walk(t, rf, nil)
}

// PerZone is NetworkTopologyStrategy placement with an explicit
// replication factor per zone: walking clockwise, a member is taken while
// its zone still needs replicas, until every zone's quota is met or its
// members are exhausted. Members of zones beyond the quota list are
// skipped.
func (r *Ring[M]) PerZone(t Token, quota []int) []M {
	remaining := append([]int(nil), quota...)
	total := 0
	for _, n := range remaining {
		total += n
	}
	return r.walk(t, total, func(zone int) bool {
		if zone >= len(remaining) || remaining[zone] <= 0 {
			return false
		}
		remaining[zone]--
		return true
	})
}

// Table is one placement strategy evaluated at every vnode. A strategy's
// result depends on the token only through the first vnode at or after it,
// and a ring never changes, so a lookup is a binary search that allocates
// nothing. The sets are shared between lookups: callers must not modify
// them.
type Table[M comparable] struct {
	tokens []Token
	sets   [][]M
}

// Memoize evaluates place — Simple or PerZone at fixed
// arguments — at each vnode's token.
func (r *Ring[M]) Memoize(place func(Token) []M) *Table[M] {
	tb := &Table[M]{tokens: make([]Token, len(r.entries)), sets: make([][]M, len(r.entries))}
	for i, e := range r.entries {
		tb.tokens[i], tb.sets[i] = e.token, place(e.token)
	}
	return tb
}

// For returns what place returns for t; nil on an empty ring.
func (tb *Table[M]) For(t Token) []M {
	lo, hi := 0, len(tb.tokens)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); tb.tokens[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(tb.tokens) {
		if lo == 0 {
			return nil
		}
		lo = 0 // past the last token: wrap to the first vnode
	}
	return tb.sets[lo]
}
