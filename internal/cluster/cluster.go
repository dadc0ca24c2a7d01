// Package cluster models the hardware substrate of the paper's testbed: a
// single rack of server-class machines, each with a multi-core CPU, one
// hard drive, and a gigabit NIC, connected by a top-of-rack switch.
//
// Each node exposes three contended resources — CPU, disk, and NIC — built
// on the sim kernel's FIFO resources, so saturation and queueing delay
// emerge in virtual time exactly as they would from offered load on real
// hardware.
package cluster

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
)

// Config describes the hardware of every node in the (homogeneous) rack.
// The defaults mirror the paper's testbed: two 6-core/12-thread Xeon L5640
// processors, 32 GB RAM, one hard drive, gigabit ethernet, single rack.
type Config struct {
	Nodes int // machines in the rack

	// CPU
	CPUSlots  int           // concurrently executing requests per node (cores × threads)
	CPUOpCost time.Duration // base CPU service time per client-facing request
	// InternalOpCost is the CPU service time for node-to-node verbs
	// (replica mutation applies, internal forwards), which skip the
	// client-facing RPC/serialization stack.
	InternalOpCost time.Duration
	MemOpCost      time.Duration // cost of an in-memory data-structure operation
	// ScanRowCost is the CPU cost of materializing one row during a
	// range scan (iteration, deserialization, response assembly) — the
	// reason long scans are CPU-heavy on JVM stores even when the data
	// is cache-resident.
	ScanRowCost time.Duration

	// Network (intra-rack)
	LinkBandwidth float64       // bytes/second per NIC
	BaseRTT       time.Duration // round-trip time between two nodes in the rack

	// Geo is the multi-datacenter topology (§6 future work: "build a
	// geo-distributed testbed"): explicit per-DC node blocks and
	// asymmetric per-direction WAN latency with bounded seeded jitter.
	// Nil is the paper's single rack — one DC holding every node.
	Geo *GeoTopology

	// Disk
	Disk DiskConfig
}

// DefaultConfig returns hardware parameters calibrated to the paper's
// testbed (Xeon L5640, 1 HDD, GbE, single rack).
func DefaultConfig() Config {
	return Config{
		Nodes:          16,
		CPUSlots:       24, // 2 sockets × 6 cores × 2 threads
		CPUOpCost:      20 * time.Microsecond,
		InternalOpCost: 5 * time.Microsecond,
		MemOpCost:      2 * time.Microsecond,
		ScanRowCost:    2 * time.Microsecond,
		LinkBandwidth:  125e6, // 1 Gbit/s
		BaseRTT:        200 * time.Microsecond,
		Disk:           DefaultDiskConfig(),
	}
}

// InternalCost is the CPU service time of a node-to-node verb: a
// configuration that does not set InternalOpCost bills CPUOpCost for it.
func (c *Config) InternalCost() time.Duration {
	if c.InternalOpCost > 0 {
		return c.InternalOpCost
	}
	return c.CPUOpCost
}

// Cluster is a rack of nodes sharing a kernel.
type Cluster struct {
	K      *sim.Kernel
	Config Config
	Nodes  []*Node

	// geo carries the WAN jitter streams and partition state; nil
	// without a GeoTopology.
	geo *geoState
}

// New builds a cluster of cfg.Nodes nodes on kernel k.
func New(k *sim.Kernel, cfg Config) *Cluster {
	c := &Cluster{K: k, Config: cfg}
	if cfg.Geo != nil {
		c.geo = newGeoState(k, cfg)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := newNode(c, i)
		n.Zone = cfg.zoneOf(i)
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Zones returns the number of zones (data centers) in the topology: one
// without a GeoTopology.
func (c *Cluster) Zones() int {
	if g := c.Config.Geo; g != nil {
		return len(g.DCSizes)
	}
	return 1
}

// ZoneNodes returns the nodes in the given zone.
func (c *Cluster) ZoneNodes(zone int) []*Node {
	var out []*Node
	for _, n := range c.Nodes {
		if n.Zone == zone {
			out = append(out, n)
		}
	}
	return out
}

// Node is one machine in the rack.
type Node struct {
	ID      int
	Zone    int // data center / region index, 0-based
	Name    string
	CPU     *sim.Resource
	Disk    *Disk
	cluster *Cluster
	down    bool

	// nicFreeAt tracks when the NIC finishes serializing the last queued
	// frame; transmissions serialize FIFO without needing a process.
	nicFreeAt sim.Time

	// pausedUntil is the end of the current stop-the-world window (JVM
	// GC); work arriving before it waits. See cluster.StartGC.
	pausedUntil sim.Time

	// BytesSent and BytesReceived count NIC traffic for reporting.
	BytesSent     int64
	BytesReceived int64
}

func newNode(c *Cluster, id int) *Node {
	name := fmt.Sprintf("node%02d", id)
	return &Node{
		ID:      id,
		Name:    name,
		CPU:     sim.NewResource(c.K, name+"/cpu", c.Config.CPUSlots),
		Disk:    NewDisk(c.K, name+"/disk", c.Config.Disk),
		cluster: c,
	}
}

// Cluster returns the cluster the node belongs to.
func (n *Node) Cluster() *Cluster { return n.cluster }

// Down reports whether the node is failed.
func (n *Node) Down() bool { return n.down }

// Fail marks the node as failed: message delivery to it is dropped and
// server code should refuse work. Storage state is retained (a crashed
// node restarts with its disk).
func (n *Node) Fail() { n.down = true }

// Recover clears the failed state.
func (n *Node) Recover() { n.down = false }

// PauseUntil opens a stop-the-world window: Exec calls arriving before t
// wait for it to close.
func (n *Node) PauseUntil(t sim.Time) {
	if t > n.pausedUntil {
		n.pausedUntil = t
	}
}

// Paused reports whether the node is inside a stop-the-world window.
func (n *Node) Paused() bool { return n.cluster.K.Now() < n.pausedUntil }

// Exec consumes base CPU service time for one request on this node,
// first waiting out any stop-the-world window.
func (n *Node) Exec(p *sim.Proc, cost time.Duration) {
	if wait := n.pausedUntil.Sub(p.Now()); wait > 0 {
		p.Sleep(wait)
	}
	n.CPU.Use(p, cost)
}

// ExecTimed is Exec, additionally returning how long the request waited
// before service began — the stop-the-world window plus CPU-slot
// queueing. The tracing layer uses it to attribute coordinator queueing
// separately from coordinator service.
func (n *Node) ExecTimed(p *sim.Proc, cost time.Duration) time.Duration {
	var waited time.Duration
	if wait := n.pausedUntil.Sub(p.Now()); wait > 0 {
		p.Sleep(wait)
		waited = wait
	}
	return waited + n.CPU.UseTimed(p, cost)
}

// ExecDaemon consumes CPU like Exec but ignores stop-the-world windows:
// it models work done by a co-located auxiliary daemon with its own small
// heap (e.g. an HDFS DataNode next to a region server), whose pauses are
// negligible compared to the database JVM's.
func (n *Node) ExecDaemon(p *sim.Proc, cost time.Duration) {
	n.CPU.Use(p, cost)
}

// netDelay computes the one-way delivery delay for a message of size bytes
// from n to dst, including FIFO serialization on n's NIC and propagation
// (inter-zone links pay the wide-area round trip). It advances the NIC
// clock, so concurrent senders see queueing.
func (n *Node) netDelay(dst *Node, size int) time.Duration {
	k := n.cluster.K
	serialize := time.Duration(float64(size) / n.cluster.Config.LinkBandwidth * float64(time.Second))
	start := k.Now()
	if n.nicFreeAt > start {
		start = n.nicFreeAt
	}
	done := start.Add(serialize)
	n.nicFreeAt = done
	prop := n.cluster.Config.BaseRTT / 2
	if dst.Zone != n.Zone {
		prop = n.cluster.wanDelay(n.Zone, dst.Zone)
	}
	return done.Sub(k.Now()) + prop
}

// SendTo blocks the calling process for the time it takes a message of the
// given size to travel from n to dst (NIC serialization + propagation).
// It returns false without delay if either endpoint is down or the zones
// are partitioned, modeling a dropped message. Use it when the caller's
// process "carries" the request, e.g. an RPC leg.
func (n *Node) SendTo(p *sim.Proc, dst *Node, size int) bool {
	if n.down || dst.down || n.cluster.zoneCut(n.Zone, dst.Zone) {
		return false
	}
	if dst == n {
		return true // loopback is free
	}
	d := n.netDelay(dst, size)
	n.BytesSent += int64(size)
	p.Sleep(d)
	if dst.down || n.cluster.zoneCut(n.Zone, dst.Zone) {
		return false
	}
	dst.BytesReceived += int64(size)
	return true
}

// Deliver schedules fn to run (in kernel context) after the network delay
// for a message of the given size from n to dst. The caller does not
// block; fn is dropped if either endpoint is down — or the zones are
// partitioned — at send or receive time.
func (n *Node) Deliver(dst *Node, size int, fn func()) {
	if n.down || dst.down || n.cluster.zoneCut(n.Zone, dst.Zone) {
		return
	}
	var d time.Duration
	if dst != n {
		d = n.netDelay(dst, size)
		n.BytesSent += int64(size)
	}
	k := n.cluster.K
	k.After(d, func() {
		if dst.down || n.cluster.zoneCut(n.Zone, dst.Zone) {
			return
		}
		dst.BytesReceived += int64(size)
		fn()
	})
}

// RoundTrip models a full request/response exchange carried by p: request
// of reqSize to dst, handler work executed against dst's resources by the
// same process, then a response of respSize back. It returns false if
// either leg is dropped; handler is skipped in that case.
func (n *Node) RoundTrip(p *sim.Proc, dst *Node, reqSize, respSize int, handler func()) bool {
	if !n.SendTo(p, dst, reqSize) {
		return false
	}
	if handler != nil {
		handler()
	}
	return dst.SendTo(p, n, respSize)
}
