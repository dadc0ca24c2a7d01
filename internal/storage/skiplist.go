package storage

import (
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

const maxHeight = 12

// skiplist is a deterministic skiplist keyed by kv.Key, mapping each key to
// its mutable *Row. It backs the memtable.
type skiplist struct {
	head   *slNode
	height int
	rng    *sim.Source
	n      int
}

type slNode struct {
	key  kv.Key
	row  *Row
	next [maxHeight]*slNode
}

func newSkiplist(rng *sim.Source) *skiplist {
	return &skiplist{head: &slNode{}, height: 1, rng: rng}
}

// randomHeight grows a node one level per two zero bits of one draw: each
// level is reached with probability 1/4 of the one below.
func (s *skiplist) randomHeight() int {
	h := 1
	for bits := s.rng.Uint64(); h < maxHeight && bits&3 == 0; bits >>= 2 {
		h++
	}
	return h
}

// findGE returns the first node with key ≥ k, recording the rightmost node
// before it on each level in prev (when prev != nil).
func (s *skiplist) findGE(k kv.Key, prev *[maxHeight]*slNode) *slNode {
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for x.next[level] != nil && x.next[level].key < k {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Get returns the row at key, or nil.
func (s *skiplist) Get(k kv.Key) *Row {
	if n := s.findGE(k, nil); n != nil && n.key == k {
		return n.row
	}
	return nil
}

// GetOrCreate returns the row at key, inserting an empty row if absent.
func (s *skiplist) GetOrCreate(k kv.Key) *Row {
	var prev [maxHeight]*slNode
	if n := s.findGE(k, &prev); n != nil && n.key == k {
		return n.row
	}
	h := s.randomHeight()
	for s.height < h {
		prev[s.height] = s.head
		s.height++
	}
	node := &slNode{key: k, row: NewRow()}
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	s.n++
	return node.row
}

// Len returns the number of keys.
func (s *skiplist) Len() int { return s.n }

// seek returns a cursor at the first key ≥ k; seek("") is the smallest key.
func (s *skiplist) seek(k kv.Key) cursor { return cursor{node: s.findGE(k, nil)} }
