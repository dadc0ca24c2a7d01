package cassandra

import (
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// TestClientConformance runs the shared kv.Client conformance suite on a
// jitter-free Cassandra deployment: without MutationStage reordering,
// per-node FIFO delivery makes CL=ONE read-your-writes for a single
// client, so the data-model semantics are observable directly.
func TestClientConformance(t *testing.T) {
	kv.RunConformance(t, conformanceHarness())
}

// TestClientConformanceMultiDC runs the same suite through the DC-aware
// levels on two data centers 80 ms apart: every level whose read and write
// sets intersect must give a single client its own writes back, whichever
// side of the WAN the acknowledging replicas sit on.
func TestClientConformanceMultiDC(t *testing.T) {
	for _, lv := range []kv.ConsistencyLevel{kv.EachQuorum, kv.LocalQuorum, kv.Quorum} {
		t.Run(lv.String(), func(t *testing.T) {
			k := sim.NewKernel(7)
			db, client, _ := multiDCDB(k, 3, []int{2, 2}, 80*time.Millisecond)
			kv.RunConformance(t, harness(k, db, client.WithConsistency(lv, lv)))
		})
	}
}

// TestScanResultAllocsIndependentOfRows: the coordinator merge and every
// replica's storage scan allocate per call, never per returned row.
func TestScanResultAllocsIndependentOfRows(t *testing.T) {
	kv.RunScanAllocGate(t, conformanceHarness())
}

func conformanceHarness() kv.Harness {
	k := sim.NewKernel(7)
	db, client := testDB(k, 6, 3, nil)
	return harness(k, db, client)
}

func harness(k *sim.Kernel, db *DB, client *Client) kv.Harness {
	return kv.Harness{
		NewClient: func() kv.Client { return client },
		Drive: func(fn func(p *sim.Proc)) error {
			k.Spawn("conformance", fn)
			return k.Run()
		},
		Flush: db.FlushAll,
	}
}
