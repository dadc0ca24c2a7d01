package ring

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cloudbench/internal/kv"
)

// build returns a ring over members 0..len(zones)-1, 8 vnodes each, with
// tokens drawn from math/rand seeded 7 — the fixture every expectation
// below was recorded on.
func build(zones []int) *Ring[int] {
	members := make([]int, len(zones))
	for i := range members {
		members[i] = i
	}
	return New(members, func(m int) int { return zones[m] }, 8, rand.New(rand.NewSource(7)).Uint64)
}

var pinKeys = []kv.Key{"user00000001", "user00000002", "user00000003", "k", ""}

// TestPlacementPinned pins the exact member order of every strategy to
// what cassandra's replicasFor / replicasForTopology / replicasForDCs
// returned before the two backend rings were merged into this package
// (recorded by running that code on this fixture). One row per strategy
// argument, one expected order per pinKeys entry.
func TestPlacementPinned(t *testing.T) {
	r := build([]int{0, 0, 1, 1, 2, 2})
	simple := func(rf int) func(Token) []int { return func(t Token) []int { return r.Simple(t, rf) } }
	quota := func(q ...int) func(Token) []int { return func(t Token) []int { return r.PerZone(t, q) } }
	for _, c := range []struct {
		name  string
		place func(Token) []int
		want  [5][]int
	}{
		{"simple rf=1", simple(1), [5][]int{{0}, {0}, {4}, {0}, {3}}},
		{"simple rf=3", simple(3), [5][]int{{0, 5, 2}, {0, 2, 4}, {4, 3, 1}, {0, 3, 1}, {3, 4, 1}}},
		{"simple rf>members", simple(9), [5][]int{
			{0, 5, 2, 4, 3, 1}, {0, 2, 4, 1, 3, 5}, {4, 3, 1, 5, 0, 2}, {0, 3, 1, 5, 2, 4}, {3, 4, 1, 5, 0, 2}}},
		{"quota 2+1", quota(2, 1), [5][]int{{0, 2, 1}, {0, 2, 1}, {3, 1, 0}, {0, 3, 1}, {3, 1, 0}}},
		{"quota 1+1+1", quota(1, 1, 1), [5][]int{{0, 5, 2}, {0, 2, 4}, {4, 3, 1}, {0, 3, 5}, {3, 4, 1}}},
		// Zone 1 has two members: its quota of 3 is exhausted at 2.
		{"quota exhausted", quota(2, 3), [5][]int{{0, 2, 3, 1}, {0, 2, 1, 3}, {3, 1, 0, 2}, {0, 3, 1, 2}, {3, 1, 0, 2}}},
		{"quota one zone", quota(0, 2, 0), [5][]int{{2, 3}, {2, 3}, {3, 2}, {3, 2}, {3, 2}}},
	} {
		for i, key := range pinKeys {
			if got := c.place(Hash(key)); !reflect.DeepEqual(got, c.want[i]) {
				t.Errorf("%s key %q: placed %v, pre-merge order %v", c.name, key, got, c.want[i])
			}
		}
	}
}

// TestPartitionOrderPinned pins the full clockwise member order from each
// partition's base token — which objstore splits at rf into placement and
// handoff — to the tables its pre-merge buildRing produced on this
// fixture, including the single-partition partPower == 0 table (base token
// 0).
func TestPartitionOrderPinned(t *testing.T) {
	r := build([]int{0, 0, 0, 1, 1, 2, 2})
	const n = 7
	base := func(part int, partPower uint) Token { return Token(uint64(part) << (64 - partPower)) }
	for _, c := range []struct {
		name      string
		partPower uint
		rf        int
		placement [][]int
		handoff   [][]int
	}{
		{"simple", 3, 3,
			[][]int{{1, 5, 4}, {5, 2, 4}, {6, 5, 2}, {2, 4, 1}, {2, 1, 0}, {3, 6, 1}, {6, 5, 1}, {5, 4, 3}},
			[][]int{{0, 6, 2, 3}, {0, 3, 6, 1}, {4, 1, 0, 3}, {5, 6, 0, 3}, {3, 6, 4, 5}, {4, 5, 2, 0}, {3, 2, 0, 4}, {6, 1, 0, 2}}},
		{"partPower 0", 0, 3, [][]int{{1, 5, 4}}, [][]int{{0, 6, 2, 3}}},
	} {
		for part := range c.placement {
			order := r.Simple(base(part, c.partPower), n)
			want := append(append([]int{}, c.placement[part]...), c.handoff[part]...)
			if !reflect.DeepEqual(order, want) {
				t.Errorf("%s partition %d: order %v, pre-merge placement|handoff %v", c.name, part, order, want)
			}
		}
	}
}

func TestHashPinnedAndSpread(t *testing.T) {
	want := []Token{2007080504230407695, 8466190207484217457, 17446576908925803954, 3144699640775901285, 17280346270528514342}
	for i, key := range pinKeys {
		if got := Hash(key); got != want[i] {
			t.Errorf("Hash(%q) = %d, want %d", key, got, want[i])
		}
	}
	f := func(s string) bool { return Hash(kv.Key(s)) == Hash(kv.Key(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyRingPlacesNothing: a ring without members returns nil from
// every strategy rather than panicking.
func TestEmptyRingPlacesNothing(t *testing.T) {
	r := build(nil)
	if got := r.Simple(1, 3); got != nil {
		t.Errorf("Simple on an empty ring = %v", got)
	}
	if got := r.PerZone(1, []int{1}); got != nil {
		t.Errorf("PerZone on an empty ring = %v", got)
	}
}

// TestPlacementAllocs fences the lookup's allocation count: the result
// slice, plus PerZone's quota copy. The per-lookup seen-set and zone-taken
// maps of the pre-merge rings are gone; the admit closures must stay on the
// stack.
func TestPlacementAllocs(t *testing.T) {
	r := build([]int{0, 0, 1, 1, 2, 2})
	tok := Hash("user00000001")
	quota := []int{2, 1}
	for _, c := range []struct {
		name  string
		place func()
		max   float64
	}{
		{"Simple", func() { r.Simple(tok, 3) }, 1},
		{"PerZone", func() { r.PerZone(tok, quota) }, 2},
	} {
		if got := testing.AllocsPerRun(100, c.place); got > c.max {
			t.Errorf("%s: %v allocs per lookup, want <= %v", c.name, got, c.max)
		}
	}
}

// TestMemoizedTableMatchesWalk: a memoised strategy answers every token —
// the vnode tokens themselves, their neighbours, both ends of the token
// space and random ones — exactly as the walk does, without allocating.
func TestMemoizedTableMatchesWalk(t *testing.T) {
	r := build([]int{0, 0, 1, 1, 2, 2})
	for name, place := range map[string]func(Token) []int{
		"simple":  func(t Token) []int { return r.Simple(t, 3) },
		"perzone": func(t Token) []int { return r.PerZone(t, []int{2, 1, 1}) },
	} {
		tb := r.Memoize(place)
		tokens := []Token{0, ^Token(0)}
		for _, e := range r.entries {
			tokens = append(tokens, e.token-1, e.token, e.token+1)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			tokens = append(tokens, Token(rng.Uint64()))
		}
		for _, tok := range tokens {
			if got, want := tb.For(tok), place(tok); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s token %d: table %v, walk %v", name, tok, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { tb.For(tokens[7]) }); n != 0 {
			t.Errorf("%s: lookup allocates %v times, want 0", name, n)
		}
	}
	if got := New([]int{}, func(int) int { return 0 }, 8, rand.Uint64).Memoize(func(Token) []int { return []int{1} }).For(5); got != nil {
		t.Errorf("empty ring placed %v", got)
	}
}
