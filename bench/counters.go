package main

import (
	"fmt"
	"hash"
	"sort"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/hbase"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
)

// counters is a snapshot of the exported counters of one deployment, read
// from the packages' public fields. All are simulated quantities and
// repeat exactly for a fixed seed.
type counters map[string]int64

func (c counters) sub(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

func (c counters) hashInto(h hash.Hash) {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(h, k, c[k])
	}
}

// ratio is num/den per the counters, 0 when the denominator never moved
// (the layer is not on this workload's path).
func (c counters) ratio(num, den string) float64 {
	if c[den] == 0 {
		return 0
	}
	return float64(c[num]) / float64(c[den])
}

func (c counters) addEngines(engines []*storage.Engine) {
	for _, e := range engines {
		c["storage.puts"] += e.Puts
		c["storage.gets"] += e.Gets
		c["storage.scans"] += e.Scans
		c["storage.flushes"] += e.Flushes
		c["storage.compactions"] += e.Compactions
		c["storage.compacted_bytes"] += e.CompactedBytes
		c["storage.cache_hits"] += e.Cache().Hits
		c["storage.cache_misses"] += e.Cache().Misses
		wal := e.WALStats()
		c["storage.wal_appends"] += wal.Appends
		c["storage.wal_batches"] += wal.Batches
		c["storage.wal_bytes"] += wal.BytesLogged
	}
}

// addNodes sums the servers' resource accounting. cpu_mean_wait_ns is a
// sum of per-node means since deploy, so only its after-run value (not a
// delta) is meaningful.
func (c counters) addNodes(k *sim.Kernel, servers []*cluster.Node) {
	for _, n := range servers {
		c["cluster.cpu_busy_ns"] += int64(n.CPU.BusyTime())
		c["cluster.cpu_mean_wait_ns"] += int64(n.CPU.MeanWait())
		c["cluster.disk_busy_ns"] += int64(n.Disk.BusyTime())
		c["cluster.net_bytes"] += n.BytesSent
	}
	c["sim.now_ns"] = int64(k.Now())
}

func cassandraCounters(db *cassandra.DB, k *sim.Kernel, servers []*cluster.Node) counters {
	c := counters{
		"cassandra.reads":            db.Reads,
		"cassandra.writes":           db.Writes,
		"cassandra.scans":            db.ScansDone,
		"cassandra.blocking_repairs": db.BlockingRepairs,
		"cassandra.async_repairs":    db.AsyncRepairs,
		"cassandra.repair_writes":    db.RepairWrites,
		"cassandra.digest_mismatch":  db.DigestMismatch,
		"cassandra.timeouts":         db.CoordinatorTimeouts,
		"cassandra.unavailable":      db.Unavails,
		"cassandra.hints_stored":     db.HintsStored,
		"cassandra.hints_replayed":   db.HintsReplayed,
	}
	c.addEngines(db.Engines())
	c.addNodes(k, servers)
	return c
}

func hbaseCounters(db *hbase.DB, k *sim.Kernel, servers []*cluster.Node) counters {
	fs := db.FS()
	c := counters{
		"hbase.reads":             db.Reads,
		"hbase.writes":            db.Writes,
		"hbase.scans":             db.ScansDone,
		"hbase.replication_sends": db.ReplicationSends,
		"hdfs.blocks_written":     fs.BlocksWritten,
		"hdfs.blocks_read":        fs.BlocksRead,
		"hdfs.remote_reads":       fs.RemoteReads,
	}
	c.addEngines(db.Engines())
	c.addNodes(k, servers)
	return c
}
