// Package cloudbench reproduces "Benchmarking Replication and Consistency
// Strategies in Cloud Serving Databases: HBase and Cassandra" (Wang, Li,
// Zhang, Zhou — BPOE 2014, LNCS 8807) as a self-contained Go system.
//
// The repository contains, from the ground up:
//
//   - internal/sim — a deterministic discrete-event simulation kernel;
//   - internal/cluster — the paper's 16-machine single-rack testbed (CPU,
//     disk, NIC, JVM stop-the-world pauses);
//   - internal/storage — a log-structured storage engine (WAL with group
//     commit, skiplist memtable, SSTables with bloom filters and block
//     cache, size-tiered compaction);
//   - internal/hdfs — a simulated HDFS with pipelined block replication;
//   - internal/hbase — an HBase-like database (master, region servers,
//     strong single-owner consistency, in-memory replication);
//   - internal/cassandra — a Cassandra-like database (token ring,
//     coordinators, tunable consistency, read repair, hinted handoff);
//   - internal/ycsb — a YCSB-core reimplementation (generators, workload
//     mixer, closed-loop paced client threads);
//   - internal/core — the paper's methodology: the micro benchmark for
//     replication (Fig. 1), the stress benchmark for replication (Fig. 2),
//     the stress benchmark for consistency (Fig. 3), Table 1, and the
//     counterfactuals and ablation documented in DESIGN.md.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-versus-measured results.
// The CLI regenerates every table and figure:
//
//	go run ./cmd/replbench -experiment all
//
// and bench/ (bash bench/run.sh) measures the simulator's own host cost.
package cloudbench
