package storage

import (
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

const maxHeight = 12

// Arena chunk sizes, in nodes: the first chunk holds minChunk nodes and
// each later one as many as the skiplist already has, up to maxChunk, so a
// tiny memtable stays small and a full one costs a few allocations per
// thousand keys.
const (
	minChunk = 8
	maxChunk = 1024
)

// skiplist is a deterministic skiplist keyed by kv.Key that holds each
// key's mutable Row inline. It backs the memtable, and is the memtable's
// arena: nodes are carved from chunks of slNodes, and each node's tower
// from chunks of links, so a new key allocates nothing of its own. Nothing
// outside the skiplist points into a chunk once the memtable is flushed
// (tables hold their rows by value), and the chunks are freed with it.
type skiplist struct {
	head   slNode
	tower  [maxHeight]*slNode // head's links
	height int
	rng    *sim.Source
	n      int

	nodes []slNode  // the current chunk's unused nodes
	links []*slNode // the current chunk's unused tower links
}

type slNode struct {
	key  kv.Key
	row  Row
	next []*slNode // the tower: one link per level the node reaches
}

func newSkiplist(rng *sim.Source) *skiplist {
	s := &skiplist{height: 1, rng: rng}
	s.head.next = s.tower[:]
	return s
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

// newNode carves a node with a tower of height h from the arena. A tower
// averages 4/3 links, so a links chunk twice a node chunk's length outlasts
// it.
func (s *skiplist) newNode(h int) *slNode {
	chunk := min(max(s.n, minChunk), maxChunk)
	if len(s.nodes) == 0 {
		s.nodes = make([]slNode, chunk)
	}
	if len(s.links) < h {
		s.links = make([]*slNode, max(2*chunk, maxHeight))
	}
	node := &s.nodes[0]
	s.nodes = s.nodes[1:]
	node.next, s.links = s.links[:h:h], s.links[h:]
	return node
}

// findGE returns the first node with key ≥ k, recording the rightmost node
// before it on each level in prev (when prev != nil).
func (s *skiplist) findGE(k kv.Key, prev *[maxHeight]*slNode) *slNode {
	x := &s.head
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
		return &n.row
	}
	return nil
}

// GetOrCreate returns the row at key, inserting an empty row if absent.
func (s *skiplist) GetOrCreate(k kv.Key) *Row {
	var prev [maxHeight]*slNode
	if n := s.findGE(k, &prev); n != nil && n.key == k {
		return &n.row
	}
	return s.insert(k, &prev, s.randomHeight())
}

// insert links a new node for k of height h in after the nodes findGE left
// in prev, and returns its row.
func (s *skiplist) insert(k kv.Key, prev *[maxHeight]*slNode, h int) *Row {
	for s.height < h {
		prev[s.height] = &s.head
		s.height++
	}
	node := s.newNode(h)
	node.key = k
	for level := range node.next {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	s.n++
	return &node.row
}

// Len returns the number of keys.
func (s *skiplist) Len() int { return s.n }

// seek returns a cursor at the first key ≥ k; seek("") is the smallest key.
func (s *skiplist) seek(k kv.Key) cursor { return cursor{node: s.findGE(k, nil)} }
