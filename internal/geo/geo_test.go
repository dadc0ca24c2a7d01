package geo

import (
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

func testController(probeChance float64) *Controller {
	return NewController(ControllerConfig{
		Ladder:      WriteLadder(kv.LocalQuorum),
		Deadline:    10 * time.Millisecond,
		MinSamples:  20,
		Cooldown:    time.Second,
		ProbeChance: probeChance,
	})
}

// drive runs fn inside a spawned process and the kernel to completion.
func drive(t *testing.T, seed int64, fn func(p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel(seed)
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateDrivenStepDown(t *testing.T) {
	c := testController(0.01)
	drive(t, 1, func(p *sim.Proc) {
		// Sustained over-deadline completions at the strongest rung: no
		// single miss shifts the ladder, but once MinSamples trusted
		// completions put the estimate over the deadline, the next issue
		// steps down before paying for the strong level again.
		for i := 0; i < 19; i++ {
			s, probe := c.stageFor(p)
			if s != 0 || probe {
				t.Fatalf("op %d: stage=%d probe=%v before estimate trusted", i, s, probe)
			}
			c.observe(p, s, probe, 80*time.Millisecond, nil)
		}
		if c.stage != 0 {
			t.Fatalf("stepped down on %d samples, below MinSamples", 19)
		}
		c.observe(p, 0, false, 80*time.Millisecond, nil)
		s, _ := c.stageFor(p)
		if s != 1 || c.stage != 1 {
			t.Fatalf("stage = %d after trusted over-deadline estimate, want 1", s)
		}
	})
	m := c.Metrics()
	if m.StepDowns != 1 || m.Misses != 20 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestErrorStepsDownImmediately(t *testing.T) {
	c := testController(0.01)
	drive(t, 2, func(p *sim.Proc) {
		s, probe := c.stageFor(p)
		c.observe(p, s, probe, time.Millisecond, kv.ErrUnavailable)
		if c.stage != 1 {
			t.Fatalf("stage = %d after unavailable, want 1", c.stage)
		}
		// Stale completions from the old rung must not double-shift.
		c.observe(p, 0, false, time.Millisecond, kv.ErrUnavailable)
		if c.stage != 1 {
			t.Fatalf("stage = %d after stale-rung error, want 1", c.stage)
		}
	})
}

func TestProbeStepsBackUpAfterCooldown(t *testing.T) {
	c := testController(1.0) // every eligible op probes
	drive(t, 3, func(p *sim.Proc) {
		s, _ := c.stageFor(p)
		c.observe(p, s, false, time.Millisecond, kv.ErrUnavailable) // down to 1
		if s, probe := c.stageFor(p); s != 1 || probe {
			t.Fatalf("probed at stage=%d probe=%v inside cooldown", s, probe)
		}
		p.Sleep(2 * time.Second)
		s, probe := c.stageFor(p)
		if s != 0 || !probe {
			t.Fatalf("stage=%d probe=%v after cooldown, want probe of rung 0", s, probe)
		}
		// Failed probe: stay down, cooldown restarts.
		c.observe(p, s, probe, 80*time.Millisecond, nil)
		if c.stage != 1 {
			t.Fatalf("failed probe moved the ladder to %d", c.stage)
		}
		if s, probe := c.stageFor(p); s != 1 || probe {
			t.Fatalf("probe fired again at stage=%d probe=%v before the restarted cooldown", s, probe)
		}
		// Successful probe commits the step-up and resets the rung's
		// history so the stale estimate cannot re-trigger the step-down.
		p.Sleep(2 * time.Second)
		s, probe = c.stageFor(p)
		if s != 0 || !probe {
			t.Fatalf("stage=%d probe=%v after restarted cooldown", s, probe)
		}
		c.observe(p, s, probe, time.Millisecond, nil)
		if c.stage != 0 {
			t.Fatalf("successful probe left the ladder at %d", c.stage)
		}
	})
	m := c.Metrics()
	if m.StepUps != 1 || m.Probes != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestDecisionsAreSeedDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		c := testController(0.3)
		var stages []int
		drive(t, seed, func(p *sim.Proc) {
			s, probe := c.stageFor(p)
			c.observe(p, s, probe, time.Millisecond, kv.ErrUnavailable)
			for i := 0; i < 50; i++ {
				p.Sleep(100 * time.Millisecond)
				s, probe := c.stageFor(p)
				stages = append(stages, s)
				c.observe(p, s, probe, 80*time.Millisecond, nil)
			}
		})
		return stages
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across equal seeds: %d vs %d", i, a[i], b[i])
		}
	}
}
