package sim

import (
	"reflect"
	"testing"
	"time"
)

// laneDelivery is one cross-shard message as its destination saw it: the
// virtual time it ran at and the (source shard, source sequence) that
// complete the lane's sort key.
type laneDelivery struct {
	t   Time
	src int
	seq uint64
}

// runLaneScript decodes script into a cross-shard send schedule, runs it on
// a fresh group, and returns each shard's delivery log in execution order.
//
// script[0] picks the shard count (2-4) and the lookahead (0, 1, 50 or
// 200 ns). Every following 3-byte group is one action of one shard's
// driver process — sleep 0 ns to 71 µs (a 4-bit mantissa of 37 ns steps
// and a 3-bit exponent, so shards drift far enough apart for windows to
// widen), then send to another shard at the delivery floor plus 0-180 ns —
// optionally answered from inside the delivery closure, so sends originate
// in event context as well as in process context.
func runLaneScript(t *testing.T, script []byte, workers int, adaptive bool) (logs [][]laneDelivery, lookahead Duration) {
	t.Helper()
	shards := 2 + int(script[0]%3)
	lookahead = []Duration{0, 1, 50, 200}[script[0]>>2%4] * time.Nanosecond
	g := NewShardGroup(1, shards, lookahead)
	g.SetWorkers(workers)
	g.adaptive = adaptive
	logs = make([][]laneDelivery, shards)

	type action struct {
		dst          int
		sleep, extra Duration
		reply        bool
	}
	plan := make([][]action, shards)
	body := script[1:]
	if len(body) > 3*64 {
		body = body[:3*64]
	}
	for ; len(body) >= 3; body = body[3:] {
		src := int(body[0]) % shards
		plan[src] = append(plan[src], action{
			dst:   (src + 1 + int(body[0]>>4)%(shards-1)) % shards,
			sleep: Duration(body[1]&0x0f) * 37 * time.Nanosecond << (body[1] >> 4 & 7),
			extra: Duration(body[2]%4) * 60 * time.Nanosecond,
			reply: body[2]&0x80 != 0,
		})
	}
	for i := range plan {
		s, acts := g.Shard(i), plan[i]
		s.Kernel().Spawn("driver", func(p *Proc) {
			for _, a := range acts {
				p.Sleep(a.sleep)
				a, src, seq := a, s.id, s.seq+1
				s.Send(a.dst, lookahead+a.extra, func(ds *Shard) {
					logs[ds.id] = append(logs[ds.id], laneDelivery{ds.k.now, src, seq})
					if !a.reply {
						return
					}
					from, rseq := ds.id, ds.seq+1
					ds.Send(src, lookahead+a.extra, func(hs *Shard) {
						logs[hs.id] = append(logs[hs.id], laneDelivery{hs.k.now, from, rseq})
					})
				})
			}
		})
	}
	if err := g.Run(); err != nil {
		t.Fatalf("group run: %v", err)
	}
	return logs, lookahead
}

// FuzzShardLane drives the message lane with random cross-shard send
// scripts and checks the two properties every sharded result rests on: the
// delivery logs are identical on the in-line loop and on a pool of four
// workers, with adaptive widening on and off (execution is independent of
// who runs a window and of where the barriers fall), and — whenever the
// lookahead is positive, so nothing is sent and received in the same
// instant — each destination consumes its deliveries in (t, src, seq)
// order.
func FuzzShardLane(f *testing.F) {
	f.Add([]byte{0x0d, 0x00, 0x01, 0x80, 0x11, 0x03, 0x02, 0x22, 0x00, 0x83})
	f.Add([]byte{0x06, 0x10, 0x00, 0x00, 0x01, 0x00, 0x00, 0x12, 0x00, 0x80, 0x20, 0x07, 0x81})
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x80, 0x00, 0x00, 0x00}) // zero lookahead: lockstep
	f.Add([]byte{0x0a, 0x31, 0x05, 0x03, 0x02, 0x05, 0x03, 0x13, 0x05, 0x83, 0x20, 0x01, 0x80})
	// Shard 0 sends with a reply from inside a window widened up to shard
	// 1's far-off next event: the reply must not land in shard 0's past.
	f.Add([]byte{0x0c, 0x00, 0x6f, 0x80, 0x00, 0x4f, 0x00, 0x00, 0x4f, 0x00, 0x01, 0x7f, 0x00, 0x01, 0x7f, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 4 {
			return
		}
		ref, lookahead := runLaneScript(t, script, 1, false)
		for _, c := range []struct {
			workers  int
			adaptive bool
		}{{1, true}, {4, false}, {4, true}} {
			if got, _ := runLaneScript(t, script, c.workers, c.adaptive); !reflect.DeepEqual(got, ref) {
				t.Fatalf("workers=%d adaptive=%v delivery logs differ from workers=1 static:\n got %v\nwant %v",
					c.workers, c.adaptive, got, ref)
			}
		}
		if lookahead == 0 {
			return
		}
		for dst, log := range ref {
			for i := 1; i < len(log); i++ {
				a, b := log[i-1], log[i]
				if a.t > b.t || a.t == b.t && (a.src > b.src || a.src == b.src && a.seq >= b.seq) {
					t.Fatalf("shard %d consumed %+v before %+v: lane out of (t, src, seq) order", dst, a, b)
				}
			}
		}
	})
}
