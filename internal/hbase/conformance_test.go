package hbase

import (
	"testing"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// TestClientConformance runs the shared kv.Client conformance suite on an
// HBase deployment — the strong-consistency control, where the contract
// holds trivially at any replication factor.
func TestClientConformance(t *testing.T) {
	kv.RunConformance(t, conformanceHarness())
}

// TestScanResultAllocsIndependentOfRows: a region scan allocates its two
// result slices, never per returned row.
func TestScanResultAllocsIndependentOfRows(t *testing.T) {
	kv.RunScanAllocGate(t, conformanceHarness())
}

func conformanceHarness() kv.Harness {
	k := sim.NewKernel(7)
	db, client := testDB(k, 4, 3)
	return kv.Harness{
		NewClient: func() kv.Client { return client },
		Drive: func(fn func(p *sim.Proc)) error {
			k.Spawn("conformance", fn)
			return k.Run()
		},
		Flush: db.FlushAll,
	}
}
