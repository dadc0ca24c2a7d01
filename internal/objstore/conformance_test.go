package objstore

import (
	"testing"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// TestClientConformance runs the shared kv.Client conformance suite at
// replication factor 1: the suite pins the data-model contract
// (partial-record merge, LWW, scan order, delete discipline), which must
// hold independent of replication. At RF>1 this backend's read-one
// rotation can legally serve a replica the async replication has not
// reached — that eventual-consistency window is by design and measured by
// the oracle experiments, not the conformance suite.
func TestClientConformance(t *testing.T) {
	kv.RunConformance(t, conformanceHarness(1))
}

// TestScanResultAllocsIndependentOfRows: at RF 3, once async replication
// has converged, the client-side merge and every server's storage scan
// allocate per call, never per returned row.
func TestScanResultAllocsIndependentOfRows(t *testing.T) {
	kv.RunScanAllocGate(t, conformanceHarness(3))
}

func conformanceHarness(rf int) kv.Harness {
	k := sim.NewKernel(7)
	db, client, _ := testDB(k, 4, rf, nil)
	return kv.Harness{
		NewClient: func() kv.Client { return client },
		Drive: func(fn func(p *sim.Proc)) error {
			k.Spawn("conformance", func(p *sim.Proc) {
				fn(p)
				db.Stop()
			})
			return k.Run()
		},
		Flush: db.FlushAll,
	}
}
