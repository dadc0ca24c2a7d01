package kv

import "cloudbench/internal/sim"

// Client is the database-facing API the workload framework drives. Every
// database implements it; operations execute in virtual time on behalf of
// the calling simulation process. A client serves one process at a time
// (one YCSB client thread = one process = one client).
//
// Who owns what crosses the interface:
//
//   - What Read and Scan return belongs to the client and is valid until
//     that client's next Read or Scan, which refills it — as YCSB's
//     DB.read fills a map its caller supplies. A caller that keeps a result
//     longer takes Record.Clone, or copies the slice (the KVs in a copy stay
//     valid: they view stored rows, not the slice).
//   - The rec handed to Insert or Update is the caller's, shared and
//     read-only: the caller may pass the same map to any number of
//     operations, on any client, at once, and an implementation may keep it
//     (a hint, a queued replication job) but never writes to it.
//
// RunConformance checks both. A partial Record passed to Update writes only
// the supplied fields; the merge with older fields happens at read time,
// newest version winning.
//
// The verbs are //simlint:coldpath: an implementation models database I/O
// and may grow a pool, a buffer or a memtable on any call, so they are the
// sanctioned allocation boundary of the per-op hot path
// (ycsb.runner.execute). In the steady state the backends' point verbs
// allocate nothing (their alloc gates); the boundary is priced in virtual
// time by the latency models, not hidden.
type Client interface {
	// Read returns the record at key, restricted to fields (nil = all),
	// valid until the client's next Read.
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
	// in key order, restricted to fields (nil = all), valid until the
	// client's next Scan.
	//simlint:coldpath
	Scan(p *sim.Proc, start Key, limit int, fields []string) ([]KV, error)
}
