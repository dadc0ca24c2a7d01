package sim

import (
	"testing"
	"time"
)

// TestTraceCtxInheritedAcrossSpawn checks the attribution contract the
// tracing layer builds on: a spawned process inherits the spawner's trace
// context, detaching is local to the process that detaches, and processes
// spawned from host code (no current process) start with a nil context.
func TestTraceCtxInheritedAcrossSpawn(t *testing.T) {
	k := NewKernel(1)
	type ctx struct{ label string }
	root := &ctx{label: "op"}

	var childSaw, grandchildSaw, afterDetachSaw any
	parent := k.Spawn("parent", func(p *Proc) {
		p.SetTraceCtx(root)
		k.Spawn("child", func(q *Proc) {
			childSaw = q.TraceCtx()
			q.SetTraceCtx(nil) // detach: must not affect parent
			k.Spawn("grandchild-of-detached", func(r *Proc) {
				grandchildSaw = r.TraceCtx()
			})
		})
		p.Sleep(time.Millisecond)
		k.Spawn("late-child", func(q *Proc) {
			afterDetachSaw = q.TraceCtx()
		})
	})
	if parent.TraceCtx() != nil {
		t.Fatal("context visible before the process ran")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childSaw != root {
		t.Fatalf("child inherited %v, want root ctx", childSaw)
	}
	if grandchildSaw != nil {
		t.Fatalf("grandchild of detached proc inherited %v, want nil", grandchildSaw)
	}
	if afterDetachSaw != root {
		t.Fatalf("parent's context clobbered by child detach: %v", afterDetachSaw)
	}

	hostSpawned := k.Spawn("host", func(p *Proc) {})
	if hostSpawned.TraceCtx() != nil {
		t.Fatal("host-spawned process should start with nil trace context")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestResourceUseTimedReportsQueueWait checks that UseTimed returns the
// queueing delay and behaves identically to Use for scheduling purposes.
func TestResourceUseTimedReportsQueueWait(t *testing.T) {
	k := NewKernel(2)
	r := NewResource(k, "cpu", 1)
	var firstWait, secondWait Duration
	k.Spawn("first", func(p *Proc) {
		firstWait = r.UseTimed(p, 10*time.Millisecond)
	})
	k.Spawn("second", func(p *Proc) {
		secondWait = r.UseTimed(p, 5*time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if firstWait != 0 {
		t.Fatalf("uncontended wait = %v, want 0", firstWait)
	}
	if secondWait != 10*time.Millisecond {
		t.Fatalf("contended wait = %v, want 10ms", secondWait)
	}
	if r.served != 2 {
		t.Fatalf("served = %d", r.served)
	}
}
