package objstore

import (
	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
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

var _ kv.Client = (*Client)(nil)

// caller is how the servers see this client: a client-facing request.
func (c *Client) caller() replica.Caller { return replica.Caller{Node: c.node, Client: true} }

// readOp is one Read, pooled (sim.Op): the live replicas, a leg per one
// asked, and the row their answers reconcile into.
type readOp struct {
	sim.Op[readLeg]
	db    *DB
	c     replica.Caller
	key   kv.Key
	live  []*Server
	resps []replica.Response
	row   storage.Row
}

// readLeg is a proxy's GET to one object server: request, server service,
// response.
type readLeg struct {
	replica.FetchLeg
	op  *readOp
	run func(*sim.Proc) // get, bound once
}

//simlint:coldpath
func (op *readOp) newLeg() *readLeg {
	l := &readLeg{op: op}
	l.Answer.Init(op.db.K)
	l.run = l.get
	return l
}

//simlint:hotpath
func (l *readLeg) get(q *sim.Proc) {
	l.Answer.Set(l.Host.Fetch(q, l.op.c, l.op.key, false, &l.Row))
	l.op.release()
}

// release drops one hold on op; the last one forgets the rows the read saw
// and returns it to the free list.
func (op *readOp) release() {
	if !op.Release() {
		return
	}
	for _, l := range op.Legs() {
		l.Answer.Init(op.db.K)
		l.Row.Reset()
	}
	op.row.Reset()
	clear(op.resps)
	op.key = ""
	op.db.readOps = append(op.db.readOps, op)
}

// Read implements kv.Client under the client's read mode.
//
//simlint:hotpath
func (c *Client) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	db := c.db
	op := sim.Take(&db.readOps)
	if op == nil {
		op = &readOp{db: db}
	}
	op.Begin()
	placement := db.PlacementFor(key)
	live := op.live[:0]
	for _, s := range placement {
		if !s.Node.Down() {
			live = append(live, s)
		}
	}
	op.live = live
	need := 1
	if c.mode == ReadQuorumFresh {
		need = len(placement)/2 + 1
	}
	if len(live) < need {
		db.Unavails++
		op.release()
		return nil, kv.ErrUnavailable
	}
	db.Reads++
	start := p.Now()
	// Rotate across the live replicas per client: object reads
	// load-balance, which is exactly what exposes a replica the async
	// replication has not reached yet.
	offset := c.next % len(live)
	c.next++
	op.c, op.key = c.caller(), key
	for i := 0; i < need; i++ {
		l := op.Leg(op.newLeg)
		l.Host = &live[(offset+i)%len(live)].Host
		db.K.Go("o*-read", l.run)
	}
	var err error
	if op.resps, err = replica.Await(p, db.cfg.Timeout, op.Legs(), op.resps[:0]); err != nil {
		db.Unavails++
		op.release()
		return nil, err
	}
	row := replica.Reconcile(op.resps, &op.row)
	db.Observed(c.oid, key, row, start)
	rec, err := replica.Fill(&c.rec, row, fields)
	op.release()
	return rec, err
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
	if !target.Node.SendTo(p, c.node, replica.RequestOverhead) {
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
