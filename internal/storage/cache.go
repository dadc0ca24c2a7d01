package storage

import "container/list"

// blockID identifies one block of one SSTable.
type blockID struct {
	table int64
	block int
}

// BlockCache is a byte-budgeted LRU cache of SSTable blocks. Only block
// identity and size are cached — the data itself is already in host
// memory — so a hit models "block present in RAM" and skips the disk.
type BlockCache struct {
	capacity int64
	used     int64
	ll       *list.List // front = most recent
	index    map[blockID]*list.Element

	Hits, Misses int64
}

type cacheEntry struct {
	id   blockID
	size int64
}

// NewBlockCache returns a cache with the given byte capacity. A zero or
// negative capacity disables caching (every lookup misses).
func NewBlockCache(capacity int64) *BlockCache {
	return &BlockCache{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[blockID]*list.Element),
	}
}

// Touch looks up a block, promoting it on hit and inserting it (with
// eviction) on miss. It returns whether the block was already cached.
func (c *BlockCache) Touch(table int64, block, size int) bool {
	if c.capacity <= 0 {
		c.Misses++
		return false
	}
	id := blockID{table, block}
	if el, ok := c.index[id]; ok {
		c.ll.MoveToFront(el)
		c.Hits++
		return true
	}
	c.Misses++
	c.used += int64(size)
	c.index[id] = c.ll.PushFront(cacheEntry{id: id, size: int64(size)})
	for c.used > c.capacity && c.ll.Len() > 1 {
		el := c.ll.Back()
		e := el.Value.(cacheEntry)
		c.ll.Remove(el)
		delete(c.index, e.id)
		c.used -= e.size
	}
	return false
}

// Contains reports whether the block is cached, without promoting it.
func (c *BlockCache) Contains(table int64, block int) bool {
	_, ok := c.index[blockID{table, block}]
	return ok
}
