package objstore

import (
	"sort"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
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
}

// NewClient returns a client issuing requests from node at the database's
// default read mode.
func (db *DB) NewClient(node *cluster.Node) *Client {
	oid := -1
	if db.oracle != nil {
		oid = db.oracle.RegisterClient()
	}
	return &Client{db: db, node: node, mode: db.cfg.ReadMode, oid: oid}
}

// WithReadMode returns a copy of the client using the given read policy.
func (c *Client) WithReadMode(m ReadMode) *Client {
	cc := *c
	cc.mode = m
	return &cc
}

var _ kv.Client = (*Client)(nil)

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

// readResponse carries one server's answer to an object read.
type readResponse struct {
	srv *Server
	row *storage.Row
	ok  bool
}

// fetch reads the full row from srv on a spawned process: request leg,
// server service, response leg, like a proxy's GET to one object server.
func (c *Client) fetch(srv *Server, key kv.Key, f *sim.Future[readResponse]) {
	db := c.db
	db.k.Go("o*-read", func(q *sim.Proc) {
		resp := readResponse{srv: srv}
		reqSize := len(key) + db.cfg.RequestOverhead
		if !c.node.SendTo(q, srv.Node, reqSize) {
			f.Set(resp)
			return
		}
		db.execServer(q, srv.Node, db.cl.Config.CPUOpCost)
		var s0 sim.Time
		if db.tracer != nil {
			s0 = q.Now()
		}
		row := srv.engine.Get(q, key)
		if db.tracer != nil {
			db.tracer.Phase(q, trace.PhaseStorage, srv.Node.ID, s0)
		}
		respSize := db.cfg.RequestOverhead
		if row != nil {
			respSize += row.Bytes()
		}
		if !srv.Node.SendTo(q, c.node, respSize) {
			f.Set(resp)
			return
		}
		resp.ok = true
		resp.row = row
		f.Set(resp)
	})
}

// reconcile folds the successful responses' rows in ascending server
// node-id order. Row merging is last-write-wins with the incumbent kept
// on a version tie, so the fixed fold order pins tie resolution to the
// lowest node id regardless of arrival order (versions are unique today;
// this keeps reconciliation order-independent if they ever gain ties).
func reconcile(merged *storage.Row, resps []readResponse) {
	order := make([]int, 0, len(resps))
	for i := range resps {
		if resps[i].ok {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return resps[order[a]].srv.Node.ID < resps[order[b]].srv.Node.ID
	})
	for _, i := range order {
		merged.MergeFrom(resps[i].row)
	}
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
	futs := make([]*sim.Future[readResponse], need)
	for i := 0; i < need; i++ {
		futs[i] = sim.NewFuture[readResponse](db.k)
		c.fetch(live[(offset+i)%len(live)], key, futs[i])
	}
	deadline := db.cfg.Timeout
	resps := make([]readResponse, 0, need)
	for _, f := range futs {
		remaining := deadline - p.Now().Sub(start)
		r, ok := f.AwaitTimeout(p, remaining)
		if !ok {
			db.Unavails++
			return nil, kv.ErrTimeout
		}
		if !r.ok {
			db.Unavails++
			return nil, kv.ErrUnavailable
		}
		resps = append(resps, r)
	}
	var row *storage.Row
	if need == 1 {
		row = resps[0].row
	} else {
		merged := storage.NewRow()
		reconcile(merged, resps)
		if merged.Version() != 0 {
			row = merged
		}
	}
	if db.oracle != nil {
		// Report the version the client actually observes after
		// reconciliation (a tombstone's version for deleted rows, 0 for
		// never-written keys).
		var ver kv.Version
		if row != nil {
			ver = row.Version()
		}
		db.oracle.ReadObserved(c.oid, key, ver, start)
	}
	if row == nil || !row.Live() {
		return nil, kv.ErrNotFound
	}
	return row.Project(fields), nil
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
	if !c.node.SendTo(p, target.Node, db.mutationSize(key, rec)) {
		return kv.ErrUnavailable
	}
	db.execServer(p, target.Node, db.cl.Config.CPUOpCost)
	db.write(p, target, inPlacement, key, rec, del)
	if !target.Node.SendTo(p, c.node, db.cfg.RequestOverhead) {
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
	alive := 0
	for _, srv := range db.srvs {
		if !srv.Node.Down() {
			alive++
		}
	}
	if alive == 0 {
		db.Unavails++
		return nil, kv.ErrUnavailable
	}
	db.ScansDone++
	perHost := min(limit, limit*db.cfg.Replication/alive+4)
	// One leg per live server fills that server's slot of parts; the
	// client sleeps until the last leg, answered or not, has counted down.
	parts := make([][]storage.ScanRow, len(db.srvs))
	pending, done := alive, sim.NewFuture[struct{}](db.k)
	for i, srv := range db.srvs {
		if srv.Node.Down() {
			continue
		}
		part := &parts[i]
		db.k.Go("o*-scan", func(q *sim.Proc) {
			*part = c.scanLeg(q, srv, start, perHost)
			if pending--; pending == 0 {
				done.Set(struct{}{})
			}
		})
	}
	done.Await(p)
	return storage.MergeScans(parts, limit, fields), nil
}

// scanLeg asks srv for its first perHost local rows ≥ start and returns
// them, read-only as Engine.Scan hands them out, or nil if either message
// is lost.
func (c *Client) scanLeg(q *sim.Proc, srv *Server, start kv.Key, perHost int) []storage.ScanRow {
	db := c.db
	if !c.node.SendTo(q, srv.Node, len(start)+db.cfg.RequestOverhead) {
		return nil
	}
	db.execServer(q, srv.Node, db.cl.Config.CPUOpCost)
	var s0 sim.Time
	if db.tracer != nil {
		s0 = q.Now()
	}
	rows := srv.engine.Scan(q, start, perHost)
	if n := len(rows); n > 0 && db.cl.Config.ScanRowCost > 0 {
		srv.Node.Exec(q, time.Duration(n)*db.cl.Config.ScanRowCost)
	}
	if db.tracer != nil {
		db.tracer.Phase(q, trace.PhaseStorage, srv.Node.ID, s0)
	}
	respSize := db.cfg.RequestOverhead
	for _, r := range rows {
		respSize += r.Row.Bytes()
	}
	if !srv.Node.SendTo(q, c.node, respSize) {
		return nil
	}
	return rows
}
