package cassandra

import (
	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
)

// Client is a Cassandra client bound to a client machine. Each request is
// sent to a coordinator chosen round-robin among live hosts (like a
// token-unaware driver), carrying the consistency levels configured on the
// client — Cassandra lets the consistency level be specified at request
// time, which is what makes the paper's Fig. 3 experiment possible.
type Client struct {
	db      *DB
	node    *cluster.Node
	readCL  kv.ConsistencyLevel
	writeCL kv.ConsistencyLevel
	next    int
	oid     int // oracle client identity for monotonic-read tracking

	// What the client last returned, refilled by its next Read and Scan
	// (kv.Client): made by the first one that needs it.
	rec      kv.Record
	kvs      []kv.KV
	scanning bool // from the merge into kvs to Scan's return
}

// NewClient returns a client issuing requests from node at the database's
// default consistency levels.
func (db *DB) NewClient(node *cluster.Node) *Client {
	oid := -1
	if db.Oracle != nil {
		oid = db.Oracle.RegisterClient()
	}
	return &Client{
		db: db, node: node,
		readCL: db.cfg.ReadCL, writeCL: db.cfg.WriteCL,
		oid: oid,
	}
}

// WithConsistency returns a copy of the client using the given read and
// write levels.
func (c *Client) WithConsistency(read, write kv.ConsistencyLevel) *Client {
	cc := *c
	cc.readCL = read
	cc.writeCL = write
	cc.rec, cc.kvs = nil, nil // the copy returns its own
	return &cc
}

var _ kv.Client = (*Client)(nil)

// coordinator picks the next live host round-robin, preferring hosts in
// the client's own zone (a DC-aware load-balancing policy): requests only
// cross the wide-area link when the replica set demands it, not on the
// first hop.
func (c *Client) coordinator() (*Replica, error) {
	reps := c.db.reps
	var fallback *Replica
	for i := 0; i < len(reps); i++ {
		rep := reps[(c.next+i)%len(reps)]
		if rep.Node.Down() {
			continue
		}
		if rep.Node.Zone == c.node.Zone {
			c.next = (c.next + i + 1) % len(reps)
			return rep, nil
		}
		if fallback == nil {
			fallback = rep
		}
	}
	if fallback != nil {
		c.next = (c.next + 1) % len(reps)
		return fallback, nil
	}
	return nil, kv.ErrUnavailable
}

// Read implements kv.Client at the client's read consistency level. The
// response is priced from the row and the record filled from it only once it
// has arrived, while the read's op is still held: Read does not yield between
// filling the record and returning it, so processes sharing a client each
// return their own key's fields.
//
//simlint:hotpath
func (c *Client) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	coord, err := c.coordinator()
	if err != nil {
		return nil, err
	}
	c.db.Reads++
	start := p.Now()
	reqSize := len(key) + c.db.RequestOverhead
	if !c.node.SendTo(p, coord.Node, reqSize) {
		return nil, kv.ErrUnavailable
	}
	c.db.Serve(p, coord.Node)
	op, row, err := c.db.read(p, coord, key, c.readCL)
	if err != nil {
		op.release()
		return nil, err
	}
	respSize := c.db.RequestOverhead
	if row != nil {
		respSize += row.ProjectedBytes(fields)
	}
	c.db.Observed(c.oid, key, row, start) // the row the coordinator is about to return
	if !coord.Node.SendTo(p, c.node, respSize) {
		op.release()
		return nil, kv.ErrUnavailable
	}
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

//simlint:hotpath
func (c *Client) put(p *sim.Proc, key kv.Key, rec kv.Record, del bool) error {
	coord, err := c.coordinator()
	if err != nil {
		return err
	}
	c.db.Writes++
	if !c.node.SendTo(p, coord.Node, c.db.MutationSize(key, rec)) {
		return kv.ErrUnavailable
	}
	c.db.Serve(p, coord.Node)
	if err := c.db.write(p, coord, key, rec, del, c.writeCL); err != nil {
		return err
	}
	if !coord.Node.SendTo(p, c.node, c.db.RequestOverhead) {
		return kv.ErrUnavailable
	}
	return nil
}

// Scan implements kv.Client. The coordinator asks every live host for its
// local rows and reconciles the replicas of each key cell-wise, newest
// wins (replica.ScanAll). The client's consistency level is not honored —
// no ack count to wait for, no read repair — which is the get_range_slices
// behaviour behind the paper's finding that short-range scans perform
// alike at every level (F6b).
func (c *Client) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	coord, err := c.coordinator()
	if err != nil {
		return nil, err
	}
	c.db.ScansDone++
	reqSize := len(start) + c.db.RequestOverhead
	if !c.node.SendTo(p, coord.Node, reqSize) {
		return nil, kv.ErrUnavailable
	}
	c.db.Serve(p, coord.Node)
	if c.scanning {
		panic("cassandra: Client.Scan called by a second process while a scan is in flight; a kv.Client serves one process at a time")
	}
	c.scanning = true
	c.kvs, _ = c.db.ScanAll(p, "c*-scan", replica.Caller{Node: coord.Node}, c.db.cfg.Replication, start, limit, fields, c.kvs)
	respSize := c.db.RequestOverhead
	for _, r := range c.kvs {
		respSize += r.Bytes()
	}
	ok := coord.Node.SendTo(p, c.node, respSize)
	c.scanning = false
	if !ok {
		return nil, kv.ErrUnavailable
	}
	return c.kvs, nil
}
