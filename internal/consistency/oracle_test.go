package consistency

import (
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

const k1 = kv.Key("user1")

// TestStaleReadAccounting covers the core definition: a read is stale only
// against writes acknowledged before the read began.
func TestStaleReadAccounting(t *testing.T) {
	o := New()
	o.BeginMeasure(0)
	o.WriteBegin(k1, 10, 3, sim.Time(0))
	o.WriteAck(k1, 10, sim.Time(100))

	// Read started before the ack: the client was not yet promised v10.
	o.ReadObserved(-1, k1, 0, sim.Time(50))
	// Read started after the ack but observing nothing: stale.
	o.ReadObserved(-1, k1, 0, sim.Time(200))
	// Read observing the acked version: fresh.
	o.ReadObserved(-1, k1, 10, sim.Time(300))

	r := o.Report()
	if r.Reads != 3 || r.StaleReads != 1 {
		t.Fatalf("reads=%d stale=%d, want 3/1", r.Reads, r.StaleReads)
	}
	if r.MeanLag != 1 || r.MaxLag != 1 {
		t.Fatalf("lag mean=%v max=%d, want 1/1", r.MeanLag, r.MaxLag)
	}
	if r.WritesBegun != 1 || r.WritesAcked != 1 {
		t.Fatalf("writes begun=%d acked=%d", r.WritesBegun, r.WritesAcked)
	}
}

// TestUnackedWritesAreNotGroundTruth: a write that never acked (timeout,
// unavailable) must not make any read stale.
func TestUnackedWritesAreNotGroundTruth(t *testing.T) {
	o := New()
	o.BeginMeasure(0)
	o.WriteBegin(k1, 10, 3, sim.Time(0))
	o.ReadObserved(-1, k1, 0, sim.Time(1000))
	if r := o.Report(); r.StaleReads != 0 {
		t.Fatalf("stale=%d against an unacked write", r.StaleReads)
	}
}

// TestVersionLag: k-staleness counts every acked missed write, not just
// the newest.
func TestVersionLag(t *testing.T) {
	o := New()
	o.BeginMeasure(0)
	for i, ver := range []kv.Version{10, 20, 30} {
		at := sim.Time(i * 100)
		o.WriteBegin(k1, ver, 3, at)
		o.WriteAck(k1, ver, at.Add(10))
	}
	o.ReadObserved(-1, k1, 10, sim.Time(1000)) // missed v20 and v30
	r := o.Report()
	if r.StaleReads != 1 || r.MeanLag != 2 || r.MaxLag != 2 {
		t.Fatalf("stale=%d lag mean=%v max=%d, want 1/2/2", r.StaleReads, r.MeanLag, r.MaxLag)
	}
}

// TestTVisibility: quorum visibility at the ⌈(n+1)/2⌉-th replica apply,
// full visibility at the last.
func TestTVisibility(t *testing.T) {
	o := New()
	o.BeginMeasure(0)
	o.WriteBegin(k1, 10, 3, sim.Time(0))
	o.ReplicaApply(k1, 10, 7, ApplyWrite, sim.Time(10))
	o.ReplicaApply(k1, 10, 8, ApplyWrite, sim.Time(20)) // quorum (2 of 3)
	o.ReplicaApply(k1, 10, 9, ApplyHint, sim.Time(30))  // all
	r := o.Report()
	if r.TVisQuorumP50 != 20*time.Nanosecond || r.TVisAllP50 != 30*time.Nanosecond {
		t.Fatalf("tvis q=%v all=%v, want 20ns/30ns", r.TVisQuorumP50, r.TVisAllP50)
	}
	if r.FullyVisible != 1 {
		t.Fatalf("fully visible = %d", r.FullyVisible)
	}
	if r.WriteApplies != 2 || r.HintApplies != 1 {
		t.Fatalf("applies write=%d hint=%d", r.WriteApplies, r.HintApplies)
	}
}

// TestRepeatApplyIdempotent: a repair re-writing an already-applied
// version bumps the source counter but not visibility.
func TestRepeatApplyIdempotent(t *testing.T) {
	o := New()
	o.BeginMeasure(0)
	o.WriteBegin(k1, 10, 2, sim.Time(0))
	o.ReplicaApply(k1, 10, 1, ApplyWrite, sim.Time(10))
	o.ReplicaApply(k1, 10, 1, ApplyRepair, sim.Time(500)) // same replica again
	r := o.Report()
	if r.WriteApplies != 1 || r.RepairApplies != 1 {
		t.Fatalf("applies=%d/%d", r.WriteApplies, r.RepairApplies)
	}
	// Quorum of 2 replicas needs both; the repeat must not count as the
	// second replica.
	if r.TVisQuorumP50 != 0 || r.FullyVisible != 0 {
		t.Fatalf("repeat apply advanced visibility: %+v", r)
	}
}

// TestMonotonicViolations are tracked per registered client.
func TestMonotonicViolations(t *testing.T) {
	o := New()
	o.BeginMeasure(0)
	a, b := o.RegisterClient(), o.RegisterClient()
	o.WriteBegin(k1, 10, 1, sim.Time(0))
	o.WriteBegin(k1, 20, 1, sim.Time(1))
	o.ReadObserved(a, k1, 20, sim.Time(100))
	o.ReadObserved(a, k1, 10, sim.Time(200)) // regression for a
	o.ReadObserved(a, k1, 10, sim.Time(300)) // still behind the max seen
	o.ReadObserved(b, k1, 10, sim.Time(400)) // b never saw v20: fine
	if r := o.Report(); r.MonotonicViolations != 2 {
		t.Fatalf("monotonic violations = %d, want 2", r.MonotonicViolations)
	}
}

// TestMeasurementWindowGating: pre-window events feed ground truth but do
// not count; a pre-window ack still makes a post-window read stale.
func TestMeasurementWindowGating(t *testing.T) {
	o := New()
	o.WriteBegin(k1, 10, 1, sim.Time(0))
	o.WriteAck(k1, 10, sim.Time(10))
	o.ReadObserved(-1, k1, 0, sim.Time(20)) // pre-window: not counted
	o.BeginMeasure(sim.Time(1000))
	o.ReadObserved(-1, k1, 0, sim.Time(500))  // started pre-window
	o.ReadObserved(-1, k1, 0, sim.Time(2000)) // counted, stale vs warmup write
	r := o.Report()
	if r.Reads != 1 || r.StaleReads != 1 {
		t.Fatalf("reads=%d stale=%d, want 1/1", r.Reads, r.StaleReads)
	}
	// The first BeginMeasure wins; a later call must not move the window.
	o.BeginMeasure(sim.Time(5000))
	o.ReadObserved(-1, k1, 10, sim.Time(3000))
	if r := o.Report(); r.Reads != 2 {
		t.Fatalf("reads=%d after second BeginMeasure, want 2", r.Reads)
	}
}

// TestHotKeyHistoryPruned: the per-key history stays bounded and the
// report flags the pruning.
func TestHotKeyHistoryPruned(t *testing.T) {
	o := New()
	o.BeginMeasure(0)
	for i := 0; i < maxWritesPerKey+10; i++ {
		ver := kv.Version(i + 1)
		o.WriteBegin(k1, ver, 1, sim.Time(i))
		o.WriteAck(k1, ver, sim.Time(i))
	}
	if r := o.Report(); r.PrunedWrites == 0 {
		t.Fatal("pruning never triggered")
	}
	if n := len(o.keys[k1].writes); n > maxWritesPerKey {
		t.Fatalf("history length %d exceeds cap %d", n, maxWritesPerKey)
	}
	// Metrics on the surviving suffix still work.
	o.ReadObserved(-1, k1, kv.Version(maxWritesPerKey+9), sim.Time(10000))
	if r := o.Report(); r.StaleReads != 1 || r.MaxLag != 1 {
		t.Fatalf("stale=%d lag=%d after pruning", r.StaleReads, r.MaxLag)
	}
}

// TestNilOracleSafe: every hook is a no-op on a nil receiver — the
// databases call them through nil-gated sites, but the methods themselves
// must also be safe (and allocation-free) for un-gated callers.
func TestNilOracleSafe(t *testing.T) {
	var o *Oracle
	if id := o.RegisterClient(); id != -1 {
		t.Fatalf("nil RegisterClient = %d", id)
	}
	allocs := testing.AllocsPerRun(100, func() {
		o.BeginMeasure(0)
		o.WriteBegin(k1, 1, 3, 0)
		o.WriteAck(k1, 1, 0)
		o.ReplicaApply(k1, 1, 0, ApplyWrite, 0)
		o.ReadObserved(-1, k1, 1, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil oracle hooks allocate %.1f/op", allocs)
	}
	if r := o.Report(); r != (Report{}) {
		t.Fatalf("nil report = %+v", r)
	}
}

// TestAttachedOracleRegisterDetach: an attached oracle sees a registered
// client's read through the full write lifecycle; detaching is setting the
// pointer to nil, whose hooks TestNilOracleSafe pins at 0 allocations.
func TestAttachedOracleRegisterDetach(t *testing.T) {
	o := New()
	cid := o.RegisterClient()
	o.BeginMeasure(0)
	o.WriteBegin(k1, 1, 1, sim.Time(1))
	o.ReplicaApply(k1, 1, 0, ApplyWrite, sim.Time(1))
	o.WriteAck(k1, 1, sim.Time(1))
	o.ReadObserved(cid, k1, 1, sim.Time(2))
	if r := o.Report(); r.Reads != 1 || r.StaleReads != 0 {
		t.Fatalf("reads=%d stale=%d, want 1/0", r.Reads, r.StaleReads)
	}
}

// TestUnknownVersionEventsIgnored: acks and applies for versions the
// oracle never saw begin (e.g. hint replay of a pre-attach write) are
// dropped without corrupting state.
func TestUnknownVersionEventsIgnored(t *testing.T) {
	o := New()
	o.BeginMeasure(0)
	o.WriteAck(k1, 99, sim.Time(10))
	o.ReplicaApply(k1, 99, 1, ApplyHint, sim.Time(20))
	o.ReadObserved(-1, kv.Key("never-written"), 0, sim.Time(30))
	r := o.Report()
	if r.WritesAcked != 0 || r.StaleReads != 0 || r.Reads != 1 {
		t.Fatalf("unexpected report %+v", r)
	}
	if r.HintApplies != 1 {
		t.Fatalf("per-source counter should still tick: %+v", r)
	}
}
