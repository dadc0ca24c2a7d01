package hdfs

import (
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/sim"
)

func testFS(t *testing.T, nodes, rf int) (*sim.Kernel, *cluster.Cluster, *FS) {
	t.Helper()
	k := sim.NewKernel(7)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = nodes
	c := cluster.New(k, ccfg)
	fcfg := DefaultConfig()
	fcfg.Replication = rf
	return k, c, New(k, fcfg, c.Nodes)
}

func TestCreatePlacesFirstReplicaLocal(t *testing.T) {
	k, c, fs := testFS(t, 5, 3)
	writer := c.Nodes[2]
	k.Spawn("writer", func(p *sim.Proc) {
		f := fs.Create(p, "/table/1", 1<<20, writer)
		if len(f.Blocks) != 1 {
			t.Errorf("blocks = %d", len(f.Blocks))
		}
		b := f.Blocks[0]
		if len(b.Replicas) != 3 {
			t.Errorf("replicas = %d", len(b.Replicas))
		}
		if b.Replicas[0] != writer {
			t.Error("first replica not writer-local")
		}
		seen := map[int]bool{}
		for _, r := range b.Replicas {
			if seen[r.ID] {
				t.Error("duplicate replica")
			}
			seen[r.ID] = true
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateSplitsIntoBlocks(t *testing.T) {
	k, c, fs := testFS(t, 4, 2)
	k.Spawn("writer", func(p *sim.Proc) {
		f := fs.Create(p, "/big", 20<<20, c.Nodes[0]) // 20MB / 8MB blocks
		if len(f.Blocks) != 3 {
			t.Errorf("blocks = %d, want 3", len(f.Blocks))
		}
		var total int64
		for _, b := range f.Blocks {
			total += b.Bytes
		}
		if total != 20<<20 {
			t.Errorf("total = %d", total)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineDepthCostsGrowWithRF(t *testing.T) {
	elapsed := func(rf int) time.Duration {
		k, c, fs := testFS(t, 8, rf)
		var d time.Duration
		k.Spawn("writer", func(p *sim.Proc) {
			start := p.Now()
			fs.Create(p, "/t", 8<<20, c.Nodes[0])
			d = p.Now().Sub(start)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	t1, t3, t6 := elapsed(1), elapsed(3), elapsed(6)
	if !(t1 < t3 && t3 < t6) {
		t.Fatalf("pipeline cost not monotone: rf1=%v rf3=%v rf6=%v", t1, t3, t6)
	}
	// Pipelining: rf=6 should cost far less than 6× rf=1.
	if t6 > 3*t1 {
		t.Fatalf("pipeline not overlapping: rf6=%v vs rf1=%v", t6, t1)
	}
}

func TestLocalReadSkipsNetwork(t *testing.T) {
	k, c, fs := testFS(t, 4, 2)
	writer := c.Nodes[1]
	k.Spawn("writer", func(p *sim.Proc) {
		f := fs.Create(p, "/t", 1<<20, writer)
		sentBefore := writer.BytesReceived
		if err := fs.ReadAt(p, f, 64<<10, writer); err != nil {
			t.Error(err)
		}
		if fs.RemoteReads != 0 {
			t.Error("local read went remote")
		}
		if writer.BytesReceived != sentBefore {
			t.Error("local read used the network")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteReadWhenNoLocalReplica(t *testing.T) {
	k, c, fs := testFS(t, 4, 1)
	k.Spawn("writer", func(p *sim.Proc) {
		f := fs.Create(p, "/t", 1<<20, c.Nodes[0])
		if err := fs.ReadAt(p, f, 64<<10, c.Nodes[3]); err != nil {
			// Node 3 may hold the single replica only if it is node 0;
			// it is not, so the read must be remote and succeed.
			t.Error(err)
		}
		if fs.RemoteReads != 1 {
			t.Errorf("remote reads = %d", fs.RemoteReads)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenAndDelete(t *testing.T) {
	k, c, fs := testFS(t, 3, 2)
	k.Spawn("writer", func(p *sim.Proc) {
		fs.Create(p, "/t", 100, c.Nodes[0])
		if _, err := fs.Open("/t"); err != nil {
			t.Error(err)
		}
		fs.Delete("/t")
		if _, err := fs.Open("/t"); err != ErrNotFound {
			t.Errorf("err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFailsWhenAllReplicasDown(t *testing.T) {
	k, c, fs := testFS(t, 4, 2)
	k.Spawn("writer", func(p *sim.Proc) {
		f := fs.Create(p, "/t", 100, c.Nodes[0])
		for _, dn := range f.Blocks[0].Replicas {
			dn.Fail()
		}
		reader := c.Nodes[3]
		if reader.Down() {
			reader = c.Nodes[2]
		}
		if err := fs.ReadAt(p, f, 100, reader); err == nil {
			t.Error("read succeeded with all replicas down")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialReadChargesAllBlocks(t *testing.T) {
	k, c, fs := testFS(t, 4, 2)
	k.Spawn("writer", func(p *sim.Proc) {
		f := fs.Create(p, "/t", 16<<20, c.Nodes[0])
		before := c.Nodes[0].Disk.BytesRead
		if err := fs.ReadSequential(p, f, c.Nodes[0]); err != nil {
			t.Fatal(err)
		}
		if got := c.Nodes[0].Disk.BytesRead - before; got != 16<<20 {
			t.Errorf("bytes read = %d, want 16MB", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	k, c, fs := testFS(t, 2, 6)
	if fs.cfg.Replication != 2 {
		t.Fatalf("replication = %d, want clamped 2", fs.cfg.Replication)
	}
	k.Spawn("writer", func(p *sim.Proc) {
		f := fs.Create(p, "/t", 100, c.Nodes[0])
		if len(f.Blocks[0].Replicas) != 2 {
			t.Errorf("replicas = %d", len(f.Blocks[0].Replicas))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
