// Package hbase implements an HBase-like cloud serving database on the
// simulated cluster: an HMaster assigning key-range regions to region
// servers, strong consistency (every read and write is served by the one
// region server owning the key), a write path of WAL append plus in-memory
// replication to peer memstores, and store files persisted on the
// simulated HDFS where the replication-factor knob lives.
//
// The design follows §2 of the paper: "HBase doesn't write updates to disk
// instantly, instead, it saves updates in a write-ahead-log (WAL) stored in
// hard drive and then does in-memory data replication across different
// nodes [...] In-memory files are flushed into HDFS when the size of them
// reaches the upper limit. HBase uses HDFS to configure the replication
// factor and save replicas."
package hbase

import (
	"fmt"
	"sort"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/hdfs"
	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// Config parameterizes the database.
type Config struct {
	// Replication is the HDFS replication factor, the paper's knob.
	Replication int
	// RegionsPerServer pre-splits the table so load spreads evenly.
	RegionsPerServer int
	// Engine configures each region's memstore and store files.
	Engine storage.Config
	// MemReplication selects the paper-described write path: WAL append
	// plus in-memory replication to Replication-1 peers. When false,
	// writes replicate synchronously to peer disks instead (ablation A2),
	// which the paper's expectations section assumed before measuring.
	MemReplication bool
}

// DefaultConfig returns an HBase configuration matching the paper's
// recommended setup at replication factor 3.
func DefaultConfig() Config {
	return Config{
		Replication:      3,
		RegionsPerServer: 4,
		Engine:           storage.DefaultConfig(),
		MemReplication:   true,
	}
}

// DB is one HBase deployment: a master, region servers on every server
// node, and an HDFS instance over the same nodes.
type DB struct {
	replica.Env
	cfg Config
	fs  *hdfs.FS

	master  *cluster.Node
	servers []*RegionServer
	regions []*Region // sorted by StartKey

	writeOps []*writeOp // free list

	// Metrics.
	Reads, Writes, ScansDone int64
	ReplicationSends         int64
}

// SetTracer attaches a request tracer recording per-phase spans along the
// read, write, and flush paths, including WAL syncs and HDFS pipeline
// hops. Pass nil (the default) to run untraced; call sites are nil-gated.
func (db *DB) SetTracer(t *trace.Tracer) {
	db.Env.SetTracer(t)
	db.fs.SetTracer(t)
}

// RegionServer hosts a set of regions on one node.
type RegionServer struct {
	Node    *cluster.Node
	Regions []*Region
	db      *DB
	// memPeers are the nodes receiving in-memory replicas of this
	// server's writes.
	memPeers []*cluster.Node
}

// Region is one key range [StartKey, EndKey) with its own memstore and
// store files, hosted on its region server's node; EndKey "" means
// unbounded.
type Region struct {
	StartKey, EndKey kv.Key
	Server           *RegionServer
	replica.Host
}

// hdfsIO adapts a region server's HDFS view to storage.TableIO: tables are
// HDFS files whose first replica is local to the server.
type hdfsIO struct {
	fs     *hdfs.FS
	node   *cluster.Node
	prefix string
}

func (h hdfsIO) name(id int64) string { return fmt.Sprintf("%s/sst-%d", h.prefix, id) }

func (h hdfsIO) WriteTable(p *sim.Proc, id int64, bytes int64) {
	h.fs.Create(p, h.name(id), bytes, h.node)
}

func (h hdfsIO) ReadTable(p *sim.Proc, id int64, bytes int64) {
	if f, err := h.fs.Open(h.name(id)); err == nil {
		_ = h.fs.ReadSequential(p, f, h.node)
	}
}

func (h hdfsIO) ReadBlock(p *sim.Proc, id int64, bytes int) {
	if f, err := h.fs.Open(h.name(id)); err == nil {
		_ = h.fs.ReadAt(p, f, bytes, h.node)
	}
}

func (h hdfsIO) DeleteTable(id int64) { h.fs.Delete(h.name(id)) }

// New builds a database over the given server nodes, with the master on
// masterNode (the paper co-locates it with the YCSB client machine).
// splits are the region split points; len(splits)+1 regions are created
// and assigned round-robin.
func New(k *sim.Kernel, cfg Config, serverNodes []*cluster.Node, masterNode *cluster.Node, splits []kv.Key) *DB {
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(serverNodes) {
		cfg.Replication = len(serverNodes)
	}
	db := &DB{
		Env:    replica.Env{K: k, Cluster: masterNode.Cluster()},
		cfg:    cfg,
		fs:     hdfs.New(k, hdfs.Config{Replication: cfg.Replication}, serverNodes),
		master: masterNode,
	}
	for _, n := range serverNodes {
		rs := &RegionServer{Node: n, db: db}
		db.servers = append(db.servers, rs)
	}
	// In-memory replication peers: the next Replication-1 servers in
	// ring order, mirroring the fixed pipeline HDFS would use.
	for i, rs := range db.servers {
		for j := 1; j < cfg.Replication; j++ {
			rs.memPeers = append(rs.memPeers, db.servers[(i+j)%len(db.servers)].Node)
		}
	}
	// Regions: splits define boundaries; assign round-robin.
	sorted := append([]kv.Key(nil), splits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bounds := append([]kv.Key{""}, sorted...)
	for i, start := range bounds {
		end := kv.Key("")
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		rs := db.servers[i%len(db.servers)]
		region := &Region{StartKey: start, EndKey: end, Server: rs}
		db.Adopt(&region.Host, rs.Node, storage.NewEngine(k, cfg.Engine,
			hdfsIO{fs: db.fs, node: rs.Node, prefix: fmt.Sprintf("/hbase/r%d", i)},
			storage.DiskLog{Disk: rs.Node.Disk},
			k.Seed()^int64(i+1)))
		rs.Regions = append(rs.Regions, region)
		db.regions = append(db.regions, region)
	}
	return db
}

// FS exposes the underlying HDFS for inspection.
func (db *DB) FS() *hdfs.FS { return db.fs }

// Servers returns the region servers.
func (db *DB) Servers() []*RegionServer { return db.servers }

// Regions returns the regions in key order.
func (db *DB) Regions() []*Region { return db.regions }

// regionFor returns the region owning key.
func (db *DB) regionFor(key kv.Key) *Region {
	// regions are sorted by StartKey; find the last region whose start
	// is <= key.
	i := sort.Search(len(db.regions), func(i int) bool { return db.regions[i].StartKey > key })
	return db.regions[i-1]
}

// writeOp is one write's replication to the server's peers, pooled (sim.Op):
// the edit's size and the ack count its legs report to.
type writeOp struct {
	sim.Op[writeLeg]
	db   *DB
	rs   *RegionServer
	size int // the edit's wire size
	acks sim.Quorum
}

// writeLeg carries its op's edit to one peer and the confirmation back.
type writeLeg struct {
	op   *writeOp
	peer *cluster.Node
	run  func(*sim.Proc) // replicate, bound once: spawning a leg allocates nothing
}

//simlint:coldpath
func (op *writeOp) newLeg() *writeLeg {
	l := &writeLeg{op: op}
	l.run = l.replicate
	return l
}

// release drops one hold on op; the last one returns it to the free list.
func (op *writeOp) release() {
	if op.Release() {
		op.db.writeOps = append(op.db.writeOps, op)
	}
}

// write is the region-server write path executed by p at the server.
func (rs *RegionServer) write(p *sim.Proc, r *Region, key kv.Key, rec kv.Record, del bool) {
	db := rs.db
	db.Serve(p, rs.Node)
	ver := db.Version()
	if db.Oracle != nil {
		// HBase is the spectrum's strong-consistency control: zero stale
		// reads, zero monotonic violations. One read-serving replica per
		// key: the owning region. Peer
		// memstores (or peer WALs on the ablation path) are durability
		// copies that never serve reads, so they are not visibility
		// events.
		db.Oracle.WriteBegin(key, ver, 1, p.Now())
	}

	// WAL locally, replicate the edit to every peer in parallel, ack when
	// all peers confirm (strong consistency).
	label := "hbase-syncrepl"
	if db.cfg.MemReplication {
		label = "hbase-memrepl"
	}
	op := sim.Take(&db.writeOps)
	if op == nil {
		op = &writeOp{db: db}
	}
	op.Begin()
	op.rs, op.size = rs, db.MutationSize(key, rec)
	op.acks.Init(db.K, len(rs.memPeers), len(rs.memPeers))
	for _, peer := range rs.memPeers {
		db.ReplicationSends++
		l := op.Leg(op.newLeg)
		l.peer = peer
		db.K.Go(label, l.run)
	}
	if del {
		r.Engine.ApplyDelete(p, key, ver)
	} else {
		r.Engine.Apply(p, key, rec, ver)
	}
	if db.Oracle != nil {
		db.Oracle.ReplicaApply(key, ver, rs.Node.ID, consistency.ApplyWrite, p.Now())
	}
	op.acks.Wait(p)
	if db.Oracle != nil {
		db.Oracle.WriteAck(key, ver, p.Now())
	}
	op.release()
}

// replicate is one peer's leg of a write. On the paper path the peer applies
// the edit to its memstore; on ablation A2 it WALs it to disk before
// confirming — synchronous replication, what the paper's expectations
// predicted.
func (l *writeLeg) replicate(q *sim.Proc) {
	op, db, peer, rs := l.op, l.op.db, l.peer, l.op.rs
	var t0 sim.Time
	if db.Tracer != nil {
		t0 = q.Now()
	}
	ok := rs.Node.SendTo(q, peer, op.size)
	if ok {
		if db.cfg.MemReplication {
			// The pipeline receiver is the co-located DataNode — a
			// small-heap daemon whose GC pauses are negligible — so
			// the in-memory apply bypasses the region server's
			// stop-the-world windows.
			peer.ExecDaemon(q, db.Cluster.Config.MemOpCost)
		} else {
			peer.Exec(q, db.Cluster.Config.CPUOpCost)
			peer.Disk.Append(q, op.size)
		}
		ok = peer.SendTo(q, rs.Node, replica.RequestOverhead)
	}
	if ok {
		if db.Tracer != nil {
			db.Tracer.Phase(q, trace.PhaseFanout, peer.ID, t0)
		}
		op.acks.Succeed()
	} else {
		op.acks.Fail()
	}
	op.release()
}

// Client is an HBase client bound to a client machine. It caches region
// locations after a META lookup at the master, like the real client.
type Client struct {
	db   *DB
	node *cluster.Node
	meta map[*Region]bool // regions already located
	oid  int              // oracle client identity

	// row is what a read's region server copies a row into when it cannot
	// share a frozen one, rows what a scan's region servers list their
	// ranges in. rec and kvs are what the client last returned, refilled by
	// its next Read and Scan (kv.Client) and made by the first one that
	// needs them. A client serves one process at a time: reading and
	// scanning mark the windows in which a second Read or Scan would
	// overwrite the first one's.
	row      storage.Row
	rec      kv.Record
	rows     []storage.ScanRow
	kvs      []kv.KV
	reading  bool
	scanning bool
}

// NewClient returns a client issuing requests from node.
func (db *DB) NewClient(node *cluster.Node) *Client {
	oid := -1
	if db.Oracle != nil {
		oid = db.Oracle.RegisterClient()
	}
	return &Client{db: db, node: node, meta: make(map[*Region]bool), oid: oid}
}

var _ kv.Client = (*Client)(nil)

// caller is how the region servers see this client: a client-facing request.
func (c *Client) caller() replica.Caller { return replica.Caller{Node: c.node, Client: true} }

// locate resolves the region for key, paying one META round trip to the
// master the first time a region is seen.
func (c *Client) locate(p *sim.Proc, key kv.Key) (*Region, error) {
	r := c.db.regionFor(key)
	if !c.meta[r] {
		if !c.node.RoundTrip(p, c.db.master, replica.RequestOverhead, replica.RequestOverhead, func() {
			c.db.master.Exec(p, c.db.Cluster.Config.MemOpCost)
		}) {
			return nil, kv.ErrUnavailable
		}
		c.meta[r] = true
	}
	if r.Server.Node.Down() {
		return nil, kv.ErrUnavailable
	}
	return r, nil
}

// Read implements kv.Client: strongly consistent read from the owning
// region server.
func (c *Client) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	r, err := c.locate(p, key)
	if err != nil {
		return nil, err
	}
	c.db.Reads++
	start := p.Now()
	if !c.node.SendTo(p, r.Server.Node, len(key)+replica.RequestOverhead) {
		return nil, kv.ErrUnavailable
	}
	if c.reading {
		panic("hbase: Client.Read called by a second process while a read is in flight; a kv.Client serves one process at a time")
	}
	c.reading = true
	row := r.Get(p, c.caller(), key, &c.row)
	respSize := replica.RequestOverhead
	if row != nil {
		respSize += row.ProjectedBytes(fields)
	}
	c.db.Observed(c.oid, key, row, start)
	// The row stays the read's across the response: the record is filled
	// once it has arrived, and Read does not yield again before returning it.
	arrived := r.Server.Node.SendTo(p, c.node, respSize)
	c.reading = false
	if !arrived {
		return nil, kv.ErrUnavailable
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

func (c *Client) put(p *sim.Proc, key kv.Key, rec kv.Record, del bool) error {
	r, err := c.locate(p, key)
	if err != nil {
		return err
	}
	c.db.Writes++
	ok := c.node.RoundTrip(p, r.Server.Node, c.db.MutationSize(key, rec), replica.RequestOverhead, func() {
		r.Server.write(p, r, key, rec, del)
	})
	if !ok {
		return kv.ErrUnavailable
	}
	return nil
}

// Scan implements kv.Client: a range scan that follows region boundaries,
// contacting each owning region server in turn.
func (c *Client) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	c.db.ScansDone++
	if c.scanning {
		panic("hbase: Client.Scan called by a second process while a scan is in flight; a kv.Client serves one process at a time")
	}
	c.scanning = true
	defer func() { c.scanning = false }()
	// Each region's rows land in c.rows and their views in c.kvs.
	c.kvs = c.kvs[:0]
	key := start
	for len(c.kvs) < limit {
		r, err := c.locate(p, key)
		if err != nil {
			return c.kvs, err
		}
		if !c.node.SendTo(p, r.Server.Node, len(key)+replica.RequestOverhead) {
			return c.kvs, kv.ErrUnavailable
		}
		var resp int
		c.rows, resp = r.Scan(p, c.caller(), key, limit-len(c.kvs), c.rows)
		if !r.Server.Node.SendTo(p, c.node, resp) {
			return c.kvs, kv.ErrUnavailable
		}
		for _, row := range c.rows {
			if r.EndKey != "" && row.Key >= r.EndKey {
				break
			}
			c.kvs = append(c.kvs, kv.View(row.Key, row.Row, fields))
			if len(c.kvs) == limit {
				return c.kvs, nil
			}
		}
		if r.EndKey == "" {
			break // last region exhausted
		}
		key = r.EndKey
	}
	return c.kvs, nil
}
