package objstore

import (
	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
)

// Client is an object-store client bound to a client machine — it plays
// the proxy-server role: the ring lookup happens client-side and requests
// go straight to the object servers. Writes always target the first live
// replica (or its handoff stand-in); reads follow the configured
// ReadMode.
type Client struct {
	db   *DB
	node *cluster.Node
	mode ReadMode
	next int
	oid  int // oracle client identity for monotonic-read tracking

	// What the client last returned, refilled by its next Read and Scan
	// (kv.Client): made by the first one that needs it. Both are filled
	// after the call's last yield, so processes sharing a client each return
	// their own.
	rec kv.Record
	kvs []kv.KV
}

// NewClient returns a client issuing requests from node at the database's
// default read mode.
func (db *DB) NewClient(node *cluster.Node) *Client {
	oid := -1
	if db.Oracle != nil {
		oid = db.Oracle.RegisterClient()
	}
	return &Client{db: db, node: node, mode: db.cfg.ReadMode, oid: oid}
}

// WithReadMode returns a copy of the client using the given read policy.
func (c *Client) WithReadMode(m ReadMode) *Client {
	cc := *c
	cc.mode = m
	cc.rec, cc.kvs = nil, nil // the copy returns its own
	return &cc
}

var _ kv.Client = (*Client)(nil)

// caller is how the servers see this client: a client-facing request.
func (c *Client) caller() replica.Caller { return replica.Caller{Node: c.node, Client: true} }

// liveReplicas filters a placement to its reachable members.
func liveReplicas(placement []*Server) []*Server {
	var live []*Server
	for _, s := range placement {
		if !s.Node.Down() {
			live = append(live, s)
		}
	}
	return live
}

// fetch reads the full row from srv on a spawned process: request leg,
// server service, response leg, like a proxy's GET to one object server.
func (c *Client) fetch(srv *Server, key kv.Key, f *sim.Future[replica.Response]) {
	c.db.K.Go("o*-read", func(q *sim.Proc) { f.Set(srv.Fetch(q, c.caller(), key, false, nil)) })
}

// Read implements kv.Client under the client's read mode.
func (c *Client) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	db := c.db
	placement := db.PlacementFor(key)
	live := liveReplicas(placement)
	if len(live) == 0 {
		db.Unavails++
		return nil, kv.ErrUnavailable
	}
	need := 1
	if c.mode == ReadQuorumFresh {
		need = len(placement)/2 + 1
		if len(live) < need {
			db.Unavails++
			return nil, kv.ErrUnavailable
		}
	}
	db.Reads++
	start := p.Now()
	// Rotate across the live replicas per client: object reads
	// load-balance, which is exactly what exposes a replica the async
	// replication has not reached yet.
	offset := c.next % len(live)
	c.next++
	futs := make([]*sim.Future[replica.Response], need)
	for i := 0; i < need; i++ {
		futs[i] = sim.NewFuture[replica.Response](db.K)
		c.fetch(live[(offset+i)%len(live)], key, futs[i])
	}
	deadline := db.cfg.Timeout
	resps := make([]replica.Response, 0, need)
	for _, f := range futs {
		remaining := deadline - p.Now().Sub(start)
		r, ok := f.AwaitTimeout(p, remaining)
		if !ok {
			db.Unavails++
			return nil, kv.ErrTimeout
		}
		if !r.OK {
			db.Unavails++
			return nil, kv.ErrUnavailable
		}
		resps = append(resps, r)
	}
	row := replica.Reconcile(resps, nil)
	if db.Oracle != nil {
		// Report the version the client actually observes after
		// reconciliation (a tombstone's version for deleted rows, 0 for
		// never-written keys).
		var ver kv.Version
		if row != nil {
			ver = row.Version()
		}
		db.Oracle.ReadObserved(c.oid, key, ver, start)
	}
	return replica.Fill(&c.rec, row, fields)
}

// Insert implements kv.Client.
func (c *Client) Insert(p *sim.Proc, key kv.Key, rec kv.Record) error {
	return c.put(p, key, rec, false)
}

// Update implements kv.Client.
func (c *Client) Update(p *sim.Proc, key kv.Key, rec kv.Record) error {
	return c.put(p, key, rec, false)
}

// Delete implements kv.Client.
func (c *Client) Delete(p *sim.Proc, key kv.Key) error {
	return c.put(p, key, nil, true)
}

// put sends the mutation to the write target, which applies it durably,
// acks, and replicates asynchronously. One round trip, one server,
// regardless of replication factor — the structural difference from
// CL=ONE's synchronous fan-out.
func (c *Client) put(p *sim.Proc, key kv.Key, rec kv.Record, del bool) error {
	db := c.db
	part := db.PartitionOf(key)
	target, inPlacement := db.writeTarget(part)
	if target == nil {
		db.Unavails++
		return kv.ErrUnavailable
	}
	db.Writes++
	if !c.node.SendTo(p, target.Node, db.MutationSize(key, rec)) {
		return kv.ErrUnavailable
	}
	db.Serve(p, target.Node)
	db.write(p, target, inPlacement, key, rec, del)
	if !target.Node.SendTo(p, c.node, db.RequestOverhead) {
		return kv.ErrUnavailable
	}
	return nil
}

// Scan implements kv.Client. The ring's hash placement scatters
// consecutive keys across the cluster (object stores have no ordered
// listing of object contents), so the client asks every live server for
// its local rows ≥ start and merges, like Cassandra's get_range_slices
// shape.
func (c *Client) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	db := c.db
	out, ok := db.ScanAll(p, "o*-scan", c.caller(), db.cfg.Replication, start, limit, fields, c.kvs)
	if !ok {
		db.Unavails++
		return nil, kv.ErrUnavailable
	}
	db.ScansDone++
	c.kvs = out
	return out, nil
}
