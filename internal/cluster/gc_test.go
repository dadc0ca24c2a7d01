package cluster

import (
	"testing"
	"time"

	"cloudbench/internal/sim"
)

func TestGCPausesDelayExec(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(1))
	n := c.Nodes[0]
	var waited time.Duration
	k.Spawn("op", func(p *sim.Proc) {
		n.PauseUntil(p.Now().Add(10 * time.Millisecond))
		if p.Now() >= n.pausedUntil {
			t.Error("node should report paused")
		}
		start := p.Now()
		n.Exec(p, time.Millisecond)
		waited = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 11*time.Millisecond {
		t.Fatalf("exec took %v, want pause 10ms + service 1ms", waited)
	}
}

func TestGCControllerStopsAndCounts(t *testing.T) {
	k := sim.NewKernel(2)
	c := New(k, testConfig(3))
	cfg := GCConfig{MeanInterval: 50 * time.Millisecond, MeanPause: 5 * time.Millisecond, MinPause: time.Millisecond}
	g := StartGC(k, cfg, c.Nodes)
	k.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		g.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err) // a deadlock here means the GC procs never exited
	}
	if g.Pauses == 0 || g.Stalled == 0 {
		t.Fatalf("pauses=%d stalled=%v, want activity", g.Pauses, g.Stalled)
	}
	// ~3 nodes × 2s / ~55ms ≈ 100 pauses; allow wide tolerance.
	if g.Pauses < 30 || g.Pauses > 300 {
		t.Fatalf("pauses = %d, outside plausible range", g.Pauses)
	}
}

func TestGCPauseExtendsNotShrinks(t *testing.T) {
	k := sim.NewKernel(3)
	c := New(k, testConfig(1))
	n := c.Nodes[0]
	n.PauseUntil(sim.Time(20 * time.Millisecond))
	n.PauseUntil(sim.Time(10 * time.Millisecond)) // shorter: ignored
	var end sim.Time
	k.Spawn("op", func(p *sim.Proc) {
		n.Exec(p, 0)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(20*time.Millisecond) {
		t.Fatalf("resumed at %v, want 20ms", end)
	}
}
