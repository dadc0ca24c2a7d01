package replica_test

import (
	"testing"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/hbase"
	"cloudbench/internal/kv"
	"cloudbench/internal/objstore"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// TestSetTracerWiresAndDetachesEveryWALHook: under all three backends
// attaching a tracer hooks every engine's WAL sync and SetTracer(nil) takes
// every hook off again, so an untraced run after a traced one pays nothing.
func TestSetTracerWiresAndDetachesEveryWALHook(t *testing.T) {
	type db interface {
		SetTracer(*trace.Tracer)
		Engines() []*storage.Engine
	}
	for _, c := range []struct {
		name  string
		build func(k *sim.Kernel, servers []*cluster.Node, client *cluster.Node) db
	}{
		{"cassandra", func(k *sim.Kernel, s []*cluster.Node, _ *cluster.Node) db {
			return cassandra.New(k, cassandra.DefaultConfig(), s)
		}},
		{"objstore", func(k *sim.Kernel, s []*cluster.Node, _ *cluster.Node) db {
			cfg := objstore.DefaultConfig()
			cfg.ReplicatorInterval = 0 // no daemon to stop
			return objstore.New(k, cfg, s)
		}},
		{"hbase", func(k *sim.Kernel, s []*cluster.Node, client *cluster.Node) db {
			return hbase.New(k, hbase.DefaultConfig(), s, client, []kv.Key{"user3", "user6"})
		}},
	} {
		k := sim.NewKernel(1)
		ccfg := cluster.DefaultConfig()
		ccfg.Nodes = 5
		nodes := cluster.New(k, ccfg).Nodes
		d := c.build(k, nodes[:4], nodes[4])
		hooked := func() (n int) {
			for _, e := range d.Engines() {
				if e.OnWALSync != nil {
					n++
				}
			}
			return n
		}
		engines := len(d.Engines())
		if engines == 0 || hooked() != 0 {
			t.Fatalf("%s: %d engines, %d hooked before any tracer", c.name, engines, hooked())
		}
		d.SetTracer(trace.New())
		if hooked() != engines {
			t.Errorf("%s: tracer attached, %d of %d engines hooked", c.name, hooked(), engines)
		}
		d.SetTracer(nil)
		if hooked() != 0 {
			t.Errorf("%s: tracer detached, %d of %d engines still hooked", c.name, hooked(), engines)
		}
	}
}
