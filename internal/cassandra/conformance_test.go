package cassandra

import (
	"testing"

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

// TestScanResultAllocsIndependentOfRows: the coordinator merge and every
// replica's storage scan allocate per call, never per returned row.
func TestScanResultAllocsIndependentOfRows(t *testing.T) {
	kv.RunScanAllocGate(t, conformanceHarness())
}

func conformanceHarness() kv.Harness {
	k := sim.NewKernel(7)
	db, client := testDB(k, 6, 3, nil)
	return kv.Harness{
		NewClient: func() kv.Client { return client },
		Drive: func(fn func(p *sim.Proc)) error {
			k.Spawn("conformance", fn)
			return k.Run()
		},
		Flush: db.FlushAll,
	}
}
