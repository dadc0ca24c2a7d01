package cluster

import (
	"testing"
	"time"

	"cloudbench/internal/sim"
)

func testConfig(nodes int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	return cfg
}

func TestNewBuildsNodes(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(4))
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID != i || n.CPU == nil || n.Disk == nil {
			t.Fatalf("node %d malformed: %+v", i, n)
		}
	}
}

func TestSendToAccruesNetworkDelay(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(2))
	var elapsed time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		start := p.Now()
		if !c.Nodes[0].SendTo(p, c.Nodes[1], 1000) {
			t.Error("send failed")
		}
		elapsed = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1000 bytes at 125 MB/s = 8µs serialize + 100µs propagation.
	want := 8*time.Microsecond + 100*time.Microsecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestSendToLoopbackIsFree(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(2))
	var elapsed time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		start := p.Now()
		c.Nodes[0].SendTo(p, c.Nodes[0], 1<<20)
		elapsed = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("loopback took %v", elapsed)
	}
}

func TestNICSerializesConcurrentSends(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(2))
	size := 125_000 // 1ms of serialization at 1 Gbit/s
	var finishes []time.Duration
	for i := 0; i < 3; i++ {
		k.Spawn("sender", func(p *sim.Proc) {
			c.Nodes[0].SendTo(p, c.Nodes[1], size)
			finishes = append(finishes, time.Duration(p.Now()))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Frames serialize back-to-back: arrivals at ~1.1ms, ~2.1ms, ~3.1ms.
	for i, f := range finishes {
		want := time.Duration(i+1)*time.Millisecond + 100*time.Microsecond
		if f != want {
			t.Fatalf("finish[%d] = %v, want %v", i, f, want)
		}
	}
}

func TestSendToDownNodeFails(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(2))
	c.Nodes[1].Fail()
	var ok bool
	k.Spawn("sender", func(p *sim.Proc) {
		ok = c.Nodes[0].SendTo(p, c.Nodes[1], 100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("send to down node succeeded")
	}
	c.Nodes[1].Recover()
	if c.Nodes[1].Down() {
		t.Fatal("recover did not clear down")
	}
}

func TestRoundTripRunsHandler(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, testConfig(2))
	var handled bool
	var elapsed time.Duration
	k.Spawn("rpc", func(p *sim.Proc) {
		start := p.Now()
		ok := c.Nodes[0].RoundTrip(p, c.Nodes[1], 100, 100, func() {
			handled = true
			c.Nodes[1].Exec(p, time.Millisecond)
		})
		if !ok {
			t.Error("round trip failed")
		}
		elapsed = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !handled {
		t.Fatal("handler not run")
	}
	if elapsed < time.Millisecond+200*time.Microsecond {
		t.Fatalf("elapsed = %v, want >= 1.2ms", elapsed)
	}
}

func TestDiskSequentialVsRandom(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, "d", DefaultDiskConfig())
	var seqT, randT time.Duration
	k.Spawn("io", func(p *sim.Proc) {
		start := p.Now()
		d.Read(p, 4096, false)
		seqT = p.Now().Sub(start)
		start = p.Now()
		d.Read(p, 4096, true)
		randT = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if randT-seqT != 8*time.Millisecond {
		t.Fatalf("random-seq = %v, want 8ms seek", randT-seqT)
	}
}

func TestDiskAppendCoalesces(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, "d", DefaultDiskConfig())
	var first, second time.Duration
	k.Spawn("wal", func(p *sim.Proc) {
		start := p.Now()
		d.Append(p, 512)
		first = p.Now().Sub(start)
		start = p.Now()
		d.Append(p, 512) // immediately after: within coalesce window
		second = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Fatalf("second append (%v) not cheaper than first (%v)", second, first)
	}
}

func TestDiskQueueing(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, "d", DefaultDiskConfig())
	var last time.Duration
	for i := 0; i < 4; i++ {
		k.Spawn("reader", func(p *sim.Proc) {
			d.Read(p, 1<<20, true) // 8ms seek + ~8.7ms transfer
			last = time.Duration(p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Four serialized I/Os of ~16.7ms each.
	if last < 60*time.Millisecond {
		t.Fatalf("last finish = %v, want >= 60ms (serialized)", last)
	}
	if d.ReadOps != 4 {
		t.Fatalf("readops = %d", d.ReadOps)
	}
}

func TestExecConsumesCPU(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(1)
	cfg.CPUSlots = 1
	c := New(k, cfg)
	var finish []time.Duration
	for i := 0; i < 2; i++ {
		k.Spawn("op", func(p *sim.Proc) {
			c.Nodes[0].Exec(p, time.Millisecond)
			finish = append(finish, time.Duration(p.Now()))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finish[1] != 2*time.Millisecond {
		t.Fatalf("finish = %v, want serialized 1ms+1ms", finish)
	}
}
