package cluster

import (
	"math"
	"time"

	"cloudbench/internal/sim"
)

// GCConfig models JVM stop-the-world pauses, the dominant source of
// latency outliers in 2013-era Java databases (both HBase and Cassandra
// run on the JVM). During a pause the node's CPU admits no new work;
// requests and replica applies queue behind it, which is what creates
// replica lag, staleness windows at weak consistency levels, and the
// slow-replica tail that ALL-consistency writes must wait for.
type GCConfig struct {
	// MeanInterval is the average time between pauses on one node
	// (exponentially distributed).
	MeanInterval time.Duration
	// MeanPause is the average stop-the-world duration (log-normal-ish:
	// exponential with a floor).
	MeanPause time.Duration
	// MinPause floors each pause (young-gen collections).
	MinPause time.Duration
}

// GCController runs pause processes on a set of nodes and can stop them so
// the simulation drains.
type GCController struct {
	stopped bool
	Pauses  int64
	Stalled time.Duration
}

// Stop ends all pause processes after their current cycle.
func (g *GCController) Stop() { g.stopped = true }

// StartGC spawns a stop-the-world pause process on each node. Call Stop
// when the experiment's driver finishes so the kernel can drain.
func StartGC(k *sim.Kernel, cfg GCConfig, nodes []*Node) *GCController {
	g := &GCController{}
	for _, n := range nodes {
		n := n
		k.Spawn(n.Name+"/gc", func(p *sim.Proc) {
			for !g.stopped {
				gap := time.Duration(float64(cfg.MeanInterval) * expRand(p))
				p.Sleep(gap)
				if g.stopped {
					return
				}
				pause := cfg.MinPause + time.Duration(float64(cfg.MeanPause-cfg.MinPause)*expRand(p))
				// Stop the world: work arriving during the window waits
				// for it to end (in-flight CPU bursts finish, like
				// threads reaching a safepoint).
				n.PauseUntil(p.Now().Add(pause))
				p.Sleep(pause)
				g.Pauses++
				g.Stalled += pause
			}
		})
	}
	return g
}

// expRand draws a unit-mean exponential variate from the process stream.
func expRand(p *sim.Proc) float64 {
	u := p.Rand().Float64()
	if u >= 1 {
		u = 0.999999
	}
	return -math.Log(1 - u)
}
