package storage

import (
	"container/list"
	"math/rand"
	"testing"
)

// listCache is the container/list LRU that BlockCache replaced, kept as the
// reference model: a cache hit spares a simulated disk read, so any change
// in which block is evicted when would move every run.
type listCache struct {
	capacity, used int64
	ll             *list.List // front = most recent
	index          map[blockID]*list.Element
	hits, misses   int64
}

type listEntry struct {
	id   blockID
	size int64
}

func newListCache(capacity int64) *listCache {
	return &listCache{capacity: capacity, ll: list.New(), index: map[blockID]*list.Element{}}
}

func (c *listCache) touch(table int64, block, size int) bool {
	if c.capacity <= 0 {
		c.misses++
		return false
	}
	id := blockID{table, block}
	if el, ok := c.index[id]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return true
	}
	c.misses++
	c.used += int64(size)
	c.index[id] = c.ll.PushFront(listEntry{id: id, size: int64(size)})
	for c.used > c.capacity && c.ll.Len() > 1 {
		el := c.ll.Back()
		e := el.Value.(listEntry)
		c.ll.Remove(el)
		delete(c.index, e.id)
		c.used -= e.size
	}
	return false
}

// TestBlockCacheMatchesListModel drives BlockCache and the list model with
// the same random touches — skewed toward a hot set, sizes up to a third of
// the budget, some larger than all of it — and requires the same answer to
// every touch and lookup, the same counters and the same resident bytes.
func TestBlockCacheMatchesListModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(rng.Intn(4000))
		c, ref := NewBlockCache(capacity), newListCache(capacity)
		for step := 0; step < 5000; step++ {
			table, block := int64(rng.Intn(8)), rng.Intn(64)
			if rng.Intn(2) == 0 {
				table, block = 0, rng.Intn(8) // the hot set
			}
			size := 1 + rng.Intn(int(capacity/3)+1)
			if rng.Intn(200) == 0 {
				size = int(capacity) + 1
			}
			if got, want := c.Touch(table, block, size), ref.touch(table, block, size); got != want {
				t.Fatalf("seed %d step %d: Touch(%d, %d, %d) = %v, model %v", seed, step, table, block, size, got, want)
			}
			probe := blockID{int64(rng.Intn(8)), rng.Intn(64)}
			if _, want := ref.index[probe]; c.Contains(probe.table, probe.block) != want {
				t.Fatalf("seed %d step %d: Contains(%v) = %v, model %v", seed, step, probe, !want, want)
			}
			if c.Hits != ref.hits || c.Misses != ref.misses || c.used != ref.used || len(c.index) != ref.ll.Len() {
				t.Fatalf("seed %d step %d: hits/misses/used/len %d/%d/%d/%d, model %d/%d/%d/%d", seed, step,
					c.Hits, c.Misses, c.used, len(c.index), ref.hits, ref.misses, ref.used, ref.ll.Len())
			}
		}
		// The recency order itself, most recent first.
		i := c.slots[0].next
		for el := ref.ll.Front(); el != nil; el, i = el.Next(), c.slots[i].next {
			if c.slots[i].id != el.Value.(listEntry).id {
				t.Fatalf("seed %d: recency order differs: %v, model %v", seed, c.slots[i].id, el.Value.(listEntry).id)
			}
		}
		if i != 0 {
			t.Fatalf("seed %d: the cache lists more blocks than the model", seed)
		}
	}
}

// TestBlockCacheTouchZeroAlloc: once the cache has held its working set,
// neither a hit nor a miss that evicts allocates.
func TestBlockCacheTouchZeroAlloc(t *testing.T) {
	c := NewBlockCache(64 << 10)
	block := 0
	touch := func() {
		block++
		c.Touch(1, block%64, 4<<10) // 16 fit: every touch misses and evicts
		c.Touch(1, block%64, 4<<10) // and then hits
	}
	for range 1000 {
		touch()
	}
	if allocs := testing.AllocsPerRun(1000, touch); allocs != 0 {
		t.Errorf("Touch at the cache's working size: %.1f allocs/op, want 0", allocs)
	}
}
