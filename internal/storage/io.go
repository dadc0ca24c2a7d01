package storage

import (
	"cloudbench/internal/cluster"
	"cloudbench/internal/sim"
)

// ioChunk is the granularity at which bulk I/O holds the disk, so that
// foreground point reads can interleave with flushes and compactions
// instead of stalling behind one multi-second device hold.
const ioChunk = 4 << 20

// TableIO abstracts where SSTables physically live: on the node's local
// disk (Cassandra) or on a replicated distributed filesystem (HBase on
// HDFS). All methods charge virtual time against the backing devices.
// The table id identifies which table is touched, so distributed backends
// can track per-table file placement.
type TableIO interface {
	// WriteTable writes new table id of the given size sequentially.
	WriteTable(p *sim.Proc, id int64, bytes int64)
	// ReadTable reads table id in full, sequentially (compaction input).
	ReadTable(p *sim.Proc, id int64, bytes int64)
	// ReadBlock reads one block of table id at a random offset: what a
	// block-cache miss costs. Device I/O is the allocation boundary of the
	// point-read hot path (HBase's opens an HDFS file by name).
	//simlint:coldpath
	ReadBlock(p *sim.Proc, id int64, bytes int)
	// DeleteTable drops table id's backing storage (post-compaction).
	DeleteTable(id int64)
}

// AppendLog abstracts the write-ahead-log device.
type AppendLog interface {
	// Append adds bytes to the log sequentially.
	Append(p *sim.Proc, bytes int)
}

// LocalIO stores tables on a single local disk.
type LocalIO struct{ Disk *cluster.Disk }

// WriteTable implements TableIO.
func (l LocalIO) WriteTable(p *sim.Proc, _ int64, bytes int64) {
	for bytes > 0 {
		n := int64(ioChunk)
		if n > bytes {
			n = bytes
		}
		l.Disk.Write(p, int(n), false) // sequential
		bytes -= n
	}
}

// ReadTable implements TableIO.
func (l LocalIO) ReadTable(p *sim.Proc, _ int64, bytes int64) {
	for bytes > 0 {
		n := int64(ioChunk)
		if n > bytes {
			n = bytes
		}
		l.Disk.Read(p, int(n), false)
		bytes -= n
	}
}

// ReadBlock implements TableIO.
func (l LocalIO) ReadBlock(p *sim.Proc, _ int64, bytes int) {
	l.Disk.Read(p, bytes, true)
}

// DeleteTable implements TableIO.
func (LocalIO) DeleteTable(int64) {}

// DiskLog appends the WAL to a local disk's log zone.
type DiskLog struct{ Disk *cluster.Disk }

// Append implements AppendLog.
func (d DiskLog) Append(p *sim.Proc, bytes int) { d.Disk.Append(p, bytes) }
