package storage

// blockID identifies one block of one SSTable.
type blockID struct {
	table int64
	block int
}

// BlockCache is a byte-budgeted LRU cache of SSTable blocks. Only block
// identity and size are cached — the data itself is already in host
// memory — so a hit models "block present in RAM" and skips the disk.
//
// The recency list is linked by slot index through one slice: slot 0 is
// the sentinel of a circular list (its next is the most recent block, its
// prev the least), and evicted slots are chained through next into a free
// list that later inserts reuse, so a cache at its working size allocates
// nothing.
type BlockCache struct {
	capacity int64
	used     int64
	index    map[blockID]int32 // slot of each cached block
	slots    []cacheSlot
	free     int32 // first free slot; 0: none

	Hits, Misses int64
}

type cacheSlot struct {
	id         blockID
	size       int64
	prev, next int32
}

// NewBlockCache returns a cache with the given byte capacity. A zero or
// negative capacity disables caching (every lookup misses).
func NewBlockCache(capacity int64) *BlockCache {
	return &BlockCache{
		capacity: capacity,
		index:    make(map[blockID]int32),
		slots:    make([]cacheSlot, 1), // the sentinel, linked to itself
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
	if i, ok := c.index[id]; ok {
		c.unlink(i)
		c.pushFront(i)
		c.Hits++
		return true
	}
	c.Misses++
	c.used += int64(size)
	i := c.free
	if i != 0 {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, cacheSlot{})
	}
	c.slots[i] = cacheSlot{id: id, size: int64(size)}
	c.pushFront(i)
	c.index[id] = i
	for c.used > c.capacity && len(c.index) > 1 {
		lru := c.slots[0].prev
		c.unlink(lru)
		delete(c.index, c.slots[lru].id)
		c.used -= c.slots[lru].size
		c.slots[lru].next, c.free = c.free, lru
	}
	return false
}

// pushFront links slot i in as the most recent block.
func (c *BlockCache) pushFront(i int32) {
	first := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, first
	c.slots[first].prev, c.slots[0].next = i, i
}

// unlink takes slot i out of the recency list.
func (c *BlockCache) unlink(i int32) {
	s := &c.slots[i]
	c.slots[s.prev].next, c.slots[s.next].prev = s.next, s.prev
}

// Contains reports whether the block is cached, without promoting it.
func (c *BlockCache) Contains(table int64, block int) bool {
	_, ok := c.index[blockID{table, block}]
	return ok
}
