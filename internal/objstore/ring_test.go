package objstore

import (
	"fmt"
	"strings"
	"testing"

	"cloudbench/internal/sim"
)

// fingerprint renders the full placement and handoff tables as node-id
// lists — the bit-identity currency for the determinism tests.
func (db *DB) fingerprint() string {
	var b strings.Builder
	for part := range db.ring.parts {
		fmt.Fprintf(&b, "%d:", part)
		for _, s := range db.ring.placement(part) {
			fmt.Fprintf(&b, " %d", s.Node.ID)
		}
		b.WriteString(" |")
		for _, s := range db.ring.handoff(part) {
			fmt.Fprintf(&b, " %d", s.Node.ID)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestRingDeterministicAcrossKernels: the ring is a pure function of
// (topology, seed) — two independent kernels with the same seed build
// bit-identical placement and handoff tables.
func TestRingDeterministicAcrossKernels(t *testing.T) {
	build := func(k *sim.Kernel) string {
		db, _, _ := testDB(k, 8, 3, nil)
		db.Stop()
		return db.fingerprint()
	}
	a := build(sim.NewKernel(21))
	b := build(sim.NewKernel(21))
	if a != b {
		t.Fatal("same seed produced different rings")
	}
	if c := build(sim.NewKernel(22)); c == a {
		t.Fatal("different seed produced the same ring (suspicious)")
	}
}

// TestRingIgnoresFailures: node failures never rebuild the ring — the
// tables are identical across fail/recover, and only the write target
// moves (to the next live placement member, then the handoff order).
func TestRingIgnoresFailures(t *testing.T) {
	k := sim.NewKernel(41)
	db, _, _ := testDB(k, 6, 3, nil)
	db.Stop()
	before := db.fingerprint()

	target := key(0)
	part := db.PartitionOf(target)
	placement := db.PlacementFor(target)
	handoff := db.ring.handoff(part)

	if s, in := db.writeTarget(part); s != placement[0] || !in {
		t.Fatalf("healthy write target = node %d, want primary %d", s.Node.ID, placement[0].Node.ID)
	}
	placement[0].Node.Fail()
	if s, in := db.writeTarget(part); s != placement[1] || !in {
		t.Fatalf("write target after primary failure = node %d, want %d", s.Node.ID, placement[1].Node.ID)
	}
	for _, s := range placement {
		s.Node.Fail()
	}
	if s, in := db.writeTarget(part); s != handoff[0] || in {
		t.Fatalf("write target with placement down = node %d, want first handoff %d", s.Node.ID, handoff[0].Node.ID)
	}
	if db.fingerprint() != before {
		t.Fatal("failures rebuilt the ring")
	}
	for _, s := range placement {
		s.Node.Recover()
	}
	if db.fingerprint() != before {
		t.Fatal("recovery rebuilt the ring")
	}
}

// TestRingEveryServerReachable: each partition's placement plus handoff
// covers every server exactly once.
func TestRingEveryServerReachable(t *testing.T) {
	k := sim.NewKernel(61)
	db, _, _ := testDB(k, 7, 3, nil)
	db.Stop()
	for part := range db.ring.parts {
		seen := map[int]bool{}
		for _, s := range db.ring.placement(part) {
			seen[s.Node.ID] = true
		}
		for _, s := range db.ring.handoff(part) {
			if seen[s.Node.ID] {
				t.Fatalf("partition %d lists node %d twice", part, s.Node.ID)
			}
			seen[s.Node.ID] = true
		}
		if len(seen) != 7 {
			t.Fatalf("partition %d covers %d of 7 servers", part, len(seen))
		}
	}
}
