package cluster

import (
	"math"
	"time"

	"cloudbench/internal/sim"
)

// DiskConfig parameterizes a single spinning hard drive.
type DiskConfig struct {
	SeekTime       time.Duration // positioning cost for a random I/O
	ReadBandwidth  float64       // bytes/second, sequential
	WriteBandwidth float64       // bytes/second, sequential
	// AppendCoalesce is the window within which consecutive sequential
	// appends (WAL/commit-log writes) are coalesced into one device
	// operation, modeling group commit at the device level.
	AppendCoalesce time.Duration
	// AppendPositioning is the cost of re-positioning onto the log zone
	// after the coalesce window lapses. It is far below SeekTime: log
	// zones are contiguous and drives cache writes, so the penalty is a
	// short settle rather than a full random seek. Keeping it small also
	// keeps the WAL latency model monostable — a full seek here would
	// make batching self-reinforcing and the equilibrium depend on
	// history rather than load.
	AppendPositioning time.Duration
}

// DefaultDiskConfig models a 7.2k RPM SATA drive.
func DefaultDiskConfig() DiskConfig {
	return DiskConfig{
		SeekTime:          8 * time.Millisecond,
		ReadBandwidth:     120e6,
		WriteBandwidth:    110e6,
		AppendCoalesce:    time.Millisecond,
		AppendPositioning: 400 * time.Microsecond,
	}
}

// Disk is one drive: a capacity-1 FIFO resource plus a latency model that
// distinguishes random I/O (pays a seek) from sequential I/O (bandwidth
// only).
type Disk struct {
	cfg DiskConfig
	res *sim.Resource

	// appendHead tracks the end of the most recent sequential append so
	// back-to-back appends within the coalesce window skip the seek.
	lastAppendEnd sim.Time

	ReadOps, WriteOps   int64
	BytesRead, BytesWri int64
}

// NewDisk returns a disk with the given configuration.
func NewDisk(k *sim.Kernel, name string, cfg DiskConfig) *Disk {
	return &Disk{
		cfg: cfg,
		res: sim.NewResource(k, name, 1),
		// Far in the past so the very first append pays positioning.
		lastAppendEnd: sim.Time(math.MinInt64 / 2),
	}
}

// BusyTime returns cumulative device-active time.
func (d *Disk) BusyTime() time.Duration { return d.res.BusyTime() }

func (d *Disk) xfer(bytes int, bw float64) time.Duration {
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// Read performs a read of the given size, blocking p for queueing plus
// service time. random selects whether a seek is paid.
func (d *Disk) Read(p *sim.Proc, bytes int, random bool) {
	t := d.xfer(bytes, d.cfg.ReadBandwidth)
	if random {
		t += d.cfg.SeekTime
	}
	d.res.Use(p, t)
	d.ReadOps++
	d.BytesRead += int64(bytes)
}

// Write performs a write of the given size, blocking p for queueing plus
// service time. random selects whether a seek is paid.
func (d *Disk) Write(p *sim.Proc, bytes int, random bool) {
	t := d.xfer(bytes, d.cfg.WriteBandwidth)
	if random {
		t += d.cfg.SeekTime
	}
	d.res.Use(p, t)
	d.WriteOps++
	d.BytesWri += int64(bytes)
}

// Append performs a sequential log append. The first append in a burst
// pays the positioning cost; appends arriving within AppendCoalesce of the
// previous append's completion ride the same head position, modeling a WAL
// on a dedicated region of the drive with group commit.
func (d *Disk) Append(p *sim.Proc, bytes int) {
	k := p.Kernel()
	t := d.xfer(bytes, d.cfg.WriteBandwidth)
	if k.Now() > d.lastAppendEnd.Add(d.cfg.AppendCoalesce) {
		// Head moved away (or first append): pay the log-zone settle.
		t += d.cfg.AppendPositioning
	}
	d.res.Use(p, t)
	d.lastAppendEnd = k.Now()
	d.WriteOps++
	d.BytesWri += int64(bytes)
}
