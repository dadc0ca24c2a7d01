package storage

import "cloudbench/internal/kv"

// A filter spends bloomBitsPerKey bits on each key and probes
// bloomBitsPerKey × ln 2 of them, rounded down.
const (
	bloomBitsPerKey = 10
	bloomProbes     = bloomBitsPerKey * 69 / 100
)

// Bloom is a standard Bloom filter over row keys, built once per SSTable.
// It uses double hashing over a 64-bit FNV-1a base hash.
type Bloom struct {
	bits []uint64
	m    uint64 // number of bits
}

// NewBloom sizes a filter for n keys.
func NewBloom(n int) *Bloom {
	if n < 1 {
		n = 1
	}
	m := uint64(n * bloomBitsPerKey)
	if m < 64 {
		m = 64
	}
	return &Bloom{bits: make([]uint64, (m+63)/64), m: m}
}

func fnv64(s kv.Key) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Add inserts a key.
func (b *Bloom) Add(key kv.Key) {
	h := fnv64(key)
	delta := h>>33 | h<<31
	for i := 0; i < bloomProbes; i++ {
		pos := h % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
		h += delta
	}
}

// MayContain reports whether key might be present (no false negatives).
func (b *Bloom) MayContain(key kv.Key) bool {
	h := fnv64(key)
	delta := h>>33 | h<<31
	for i := 0; i < bloomProbes; i++ {
		pos := h % b.m
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
