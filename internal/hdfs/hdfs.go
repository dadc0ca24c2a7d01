// Package hdfs simulates the Hadoop Distributed File System as HBase uses
// it: a NameNode tracking files and block placements, DataNodes storing
// replicated blocks on their local disks, pipelined block writes whose
// depth is the replication factor, and locality-aware reads (the first
// replica of every block is placed on the writing node, so a region server
// reads its own store files from its local disk).
//
// This is where HBase's replication-factor knob lives: a higher factor
// deepens the write pipeline and consumes disk on more nodes during
// flushes and compactions, but — exactly as the paper observes — it
// sits off the foreground write path, which is WAL plus memstore.
package hdfs

import (
	"errors"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/sim"
	"cloudbench/internal/trace"
)

const (
	// blockBytes is the HDFS block size (dfs.blocksize), scaled for
	// simulation: 64 MB in production would make every simulated table one
	// block, hiding block-level behaviour.
	blockBytes = 8 << 20
	// pipelineHop is the per-hop forwarding latency inside a write
	// pipeline (packet store-and-forward cost per extra replica).
	pipelineHop = 500 * time.Microsecond
)

// Config parameterizes the filesystem.
type Config struct {
	// Replication is the default replication factor (dfs.replication).
	Replication int
}

// DefaultConfig returns replication 3.
func DefaultConfig() Config {
	return Config{Replication: 3}
}

// FS is the filesystem: a NameNode plus the set of DataNodes.
type FS struct {
	k     *sim.Kernel
	cfg   Config
	nodes []*cluster.Node // DataNodes

	files   map[string]*File
	nextBlk int64

	// tracer, when non-nil, records one hdfs-phase span per pipeline hop.
	//
	//simlint:hook
	tracer *trace.Tracer

	// Metrics.
	BlocksWritten int64
	BlocksRead    int64
	RemoteReads   int64
}

// File is a named sequence of replicated blocks.
type File struct {
	Name   string
	Bytes  int64
	Blocks []*Block
}

// Block is one replicated extent of a file.
type Block struct {
	ID       int64
	Bytes    int64
	Replicas []*cluster.Node // Replicas[0] is the writer-local copy
}

// ErrNotFound reports a missing file.
var ErrNotFound = errors.New("hdfs: file not found")

// New creates a filesystem over the given DataNodes.
func New(k *sim.Kernel, cfg Config, nodes []*cluster.Node) *FS {
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(nodes) {
		cfg.Replication = len(nodes)
	}
	return &FS{k: k, cfg: cfg, nodes: nodes, files: make(map[string]*File)}
}

// SetTracer installs (or, with nil, removes) the tracer observing pipeline
// hops.
func (fs *FS) SetTracer(t *trace.Tracer) { fs.tracer = t }

// placeReplicas chooses replica nodes for one block: the writer first (if
// it is a DataNode), then distinct random others — HDFS's default policy
// restricted to one rack.
func (fs *FS) placeReplicas(writer *cluster.Node) []*cluster.Node {
	replicas := make([]*cluster.Node, 0, fs.cfg.Replication)
	used := make(map[int]bool)
	for _, n := range fs.nodes {
		if n == writer {
			replicas = append(replicas, n)
			used[n.ID] = true
			break
		}
	}
	rng := fs.k.Rand()
	for len(replicas) < fs.cfg.Replication {
		n := fs.nodes[rng.Intn(len(fs.nodes))]
		if used[n.ID] || n.Down() {
			// Retry; bail out if nearly everyone is down.
			alive := 0
			for _, m := range fs.nodes {
				if !m.Down() && !used[m.ID] {
					alive++
				}
			}
			if alive == 0 {
				break
			}
			continue
		}
		used[n.ID] = true
		replicas = append(replicas, n)
	}
	return replicas
}

// Create writes a new file of the given size from writer, blocking p until
// every block's full pipeline has acknowledged (HDFS semantics). It
// overwrites any existing file of the same name.
func (fs *FS) Create(p *sim.Proc, name string, bytes int64, writer *cluster.Node) *File {
	f := &File{Name: name, Bytes: bytes}
	remaining := bytes
	for remaining > 0 {
		n := min(remaining, blockBytes)
		fs.nextBlk++
		b := &Block{ID: fs.nextBlk, Bytes: n, Replicas: fs.placeReplicas(writer)}
		fs.writeBlockPipeline(p, b)
		f.Blocks = append(f.Blocks, b)
		fs.BlocksWritten++
		remaining -= n
	}
	fs.files[name] = f
	return f
}

// writeBlockPipeline models the chained write: replica i receives the block
// i per-hop forwarding latencies after replica 0 and writes it to its disk,
// the disks running concurrently (pipelining), and the writer blocks until
// the last replica has it. The links between replicas are not charged to
// the NICs: the pipeline has only ever modelled the hops' latency and the
// disks, and charging the transfers would move every HBase figure.
func (fs *FS) writeBlockPipeline(p *sim.Proc, b *Block) {
	done := make([]*sim.Future[struct{}], len(b.Replicas))
	for i, dn := range b.Replicas {
		done[i] = sim.NewFuture[struct{}](fs.k)
		fs.k.Go("hdfs-pipe", func(q *sim.Proc) {
			defer done[i].Set(struct{}{})
			if tr := fs.tracer; tr != nil {
				t0 := q.Now()
				defer func() { tr.Interval(q, trace.PhaseHDFS, dn.ID, t0, q.Now()) }()
			}
			// Pipeline fill: hop i starts after i store-and-forward hops.
			q.Sleep(time.Duration(i) * pipelineHop)
			// Persist on the replica's disk, chunked so foreground I/O
			// interleaves.
			rem := b.Bytes
			for rem > 0 {
				n := int64(4 << 20)
				if n > rem {
					n = rem
				}
				dn.Disk.Write(q, int(n), false)
				rem -= n
			}
		})
	}
	for _, d := range done {
		d.Await(p)
	}
}

// Open returns the named file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, ErrNotFound
	}
	return f, nil
}

// Delete removes the named file. Deleting a missing file is a no-op.
func (fs *FS) Delete(name string) { delete(fs.files, name) }

// ReadAt charges a read of length bytes at a random position within the
// file, on behalf of reader. The closest live replica is used: the reader
// itself when it holds one (short-circuit local read), otherwise another
// replica over the network.
func (fs *FS) ReadAt(p *sim.Proc, f *File, bytes int, reader *cluster.Node) error {
	if len(f.Blocks) == 0 {
		return nil
	}
	// The specific block does not matter for cost; use the first block's
	// placement, which is representative (all blocks of a table flushed
	// by one region server share the writer-local first replica).
	return fs.readFromReplica(p, f.Blocks[0], bytes, reader, true)
}

// ReadSequential charges a full sequential read of the file (compaction
// input) from the closest replicas.
func (fs *FS) ReadSequential(p *sim.Proc, f *File, reader *cluster.Node) error {
	for _, b := range f.Blocks {
		rem := b.Bytes
		for rem > 0 {
			n := int64(4 << 20)
			if n > rem {
				n = rem
			}
			if err := fs.readFromReplica(p, b, int(n), reader, false); err != nil {
				return err
			}
			rem -= n
		}
	}
	return nil
}

func (fs *FS) readFromReplica(p *sim.Proc, b *Block, bytes int, reader *cluster.Node, random bool) error {
	fs.BlocksRead++
	// Prefer the local replica.
	for _, dn := range b.Replicas {
		if dn == reader && !dn.Down() {
			dn.Disk.Read(p, bytes, random)
			return nil
		}
	}
	// Remote read: pick the first live replica, pay disk + network.
	for _, dn := range b.Replicas {
		if dn.Down() {
			continue
		}
		fs.RemoteReads++
		dn.Disk.Read(p, bytes, random)
		if !dn.SendTo(p, reader, bytes) {
			return errors.New("hdfs: transfer failed")
		}
		return nil
	}
	return errors.New("hdfs: all replicas down")
}
