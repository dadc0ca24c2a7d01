package cluster

import (
	"testing"
	"time"

	"cloudbench/internal/sim"
)

// TestFailRecoverSameInstantKeepsCallOrder: the failover experiments
// schedule Fail and Recover with Kernel.After; when both land on the same
// tick the kernel's FIFO order for simultaneous events must make the last
// registered call win, deterministically.
func TestFailRecoverSameInstantKeepsCallOrder(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(2))
	n := c.Nodes[1]
	k.After(time.Millisecond, n.Fail)
	k.After(time.Millisecond, n.Recover)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Down() {
		t.Fatal("fail-then-recover at the same instant left the node down")
	}

	k2 := sim.NewKernel(1)
	c2 := New(k2, testConfig(2))
	n2 := c2.Nodes[1]
	k2.After(time.Millisecond, n2.Recover)
	k2.After(time.Millisecond, n2.Fail)
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if !n2.Down() {
		t.Fatal("recover-then-fail at the same instant left the node up")
	}
}

// TestSendToDroppedWhenReceiverFailsMidFlight: liveness is checked at
// arrival time, so a message in flight toward a node that dies before it
// lands is lost (and not counted as received).
func TestSendToDroppedWhenReceiverFailsMidFlight(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(2))
	var ok bool
	k.Spawn("sender", func(p *sim.Proc) {
		ok = c.Nodes[0].SendTo(p, c.Nodes[1], 1000) // ~108µs in flight
	})
	k.After(50*time.Microsecond, c.Nodes[1].Fail)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("send delivered to a node that failed mid-flight")
	}
	if c.Nodes[1].BytesReceived != 0 {
		t.Fatalf("down node counted %d received bytes", c.Nodes[1].BytesReceived)
	}
}

// TestSendToSurvivesFailRecoverCycleInFlight: a fail/recover cycle that
// completes before the message lands does not lose it — only the node's
// state at arrival matters (storage is retained across the crash, and the
// sender's connection outlives the blip).
func TestSendToSurvivesFailRecoverCycleInFlight(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(2))
	var ok bool
	k.Spawn("sender", func(p *sim.Proc) {
		ok = c.Nodes[0].SendTo(p, c.Nodes[1], 1000)
	})
	k.After(30*time.Microsecond, c.Nodes[1].Fail)
	k.After(60*time.Microsecond, c.Nodes[1].Recover)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("send lost although the receiver was up at arrival")
	}
}
