package storage

import (
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// cursor is the merge position in one level: a memtable node, or an index
// into an SSTable's entries. It is a plain value so a scan keeps all its
// levels in one stack array instead of a heap iterator per level. A table
// cursor with a process charges block loads as it advances; one without
// (compaction, which bills its inputs as whole-table sequential reads up
// front) walks for free.
type cursor struct {
	node *slNode // memtable level (t == nil): the current node

	// Table level: the current entry is t.entries[i].
	t     *SSTable
	i     int
	block int       // last block charged for
	p     *sim.Proc // nil: advance without charging
	io    TableIO
	cache *BlockCache
}

func (c *cursor) chargeBlock() {
	if c.p == nil || c.i >= len(c.t.entries) {
		return
	}
	if b := c.t.blockFor(c.t.entries[c.i].Key); b != c.block {
		c.block = b
		c.t.loadBlock(c.p, c.io, c.cache, b)
	}
}

// valid reports whether the cursor points at an entry; key and row are
// only meaningful while it does.
func (c *cursor) valid() bool {
	if c.t == nil {
		return c.node != nil
	}
	return c.i < len(c.t.entries)
}

func (c *cursor) key() kv.Key {
	if c.t == nil {
		return c.node.key
	}
	return c.t.entries[c.i].Key
}

func (c *cursor) row() *Row {
	if c.t == nil {
		return &c.node.row
	}
	return &c.t.entries[c.i].Row
}

// next advances the cursor, charging a block load when a charging table
// cursor crosses into a new block.
func (c *cursor) next() {
	if c.t == nil {
		c.node = c.node.next[0]
		return
	}
	c.i++
	c.chargeBlock()
}
