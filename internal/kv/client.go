package kv

import "cloudbench/internal/sim"

// Client is the database-facing API the workload framework drives. Both
// databases implement it; operations execute in virtual time on behalf of
// the calling simulation process (one YCSB client thread = one process).
//
// A partial Record passed to Update writes only the supplied fields; the
// merge with older fields happens at read time, newest version winning.
// The rec handed to Insert or Update is shared and read-only: the caller may
// pass the same map to any number of operations, on any client, at once, and
// an implementation may keep it (a hint, a queued replication job) but never
// writes to it — RunConformance checks this.
//
// The verbs are //simlint:coldpath: every implementation models database
// I/O — RPC futures, WAL appends, memtable copies — and allocates by
// design, so they are the sanctioned allocation boundary of the per-op
// hot path (ycsb.runner.execute). The boundary is priced in virtual time
// by the latency models, not hidden.
type Client interface {
	// Read returns the record at key, restricted to fields (nil = all).
	//simlint:coldpath
	Read(p *sim.Proc, key Key, fields []string) (Record, error)
	// Insert stores a new record at key.
	//simlint:coldpath
	Insert(p *sim.Proc, key Key, rec Record) error
	// Update overwrites the supplied fields of the record at key.
	//simlint:coldpath
	Update(p *sim.Proc, key Key, rec Record) error
	// Delete removes the record at key.
	//simlint:coldpath
	Delete(p *sim.Proc, key Key) error
	// Scan returns up to limit records starting at the first key ≥ start,
	// in key order, restricted to fields (nil = all).
	//simlint:coldpath
	Scan(p *sim.Proc, start Key, limit int, fields []string) ([]KV, error)
}
