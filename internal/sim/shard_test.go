package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ringModel is the differential-gate workload for the shard engine: nNodes
// logical nodes, each a process that alternates RNG-drawn sleeps with
// token sends around the ring, logging every action with its virtual
// timestamp. Node i lives on shard i%shards; sends cross shard boundaries
// with a delay of at least the lookahead. The concatenated per-node logs
// are the run's signature: two runs are equivalent iff their signatures
// are byte-identical.
type ringModel struct {
	nodes  int
	rounds int
	logs   [][]string
}

// runOnGroup builds and runs the model on a shard group and returns the
// signature. delay is the send latency (must be ≥ the group's lookahead
// for cross-shard edges).
func (m *ringModel) runOnGroup(t *testing.T, g *ShardGroup, delay Duration) string {
	t.Helper()
	m.logs = make([][]string, m.nodes)
	shardOf := func(node int) int { return node % g.Shards() }
	for i := 0; i < m.nodes; i++ {
		i := i
		s := g.Shard(shardOf(i))
		s.Kernel().Spawn(fmt.Sprintf("node%d", i), func(p *Proc) {
			for r := 0; r < m.rounds; r++ {
				p.Sleep(Duration(p.Rand().Intn(5000)) * time.Nanosecond)
				m.logs[i] = append(m.logs[i], fmt.Sprintf("n%d send r%d @%d", i, r, p.Now()))
				dst := (i + 1) % m.nodes
				r := r
				g.Shard(shardOf(i)).Send(shardOf(dst), delay, func(ds *Shard) {
					m.logs[dst] = append(m.logs[dst],
						fmt.Sprintf("n%d recv from n%d r%d @%d", dst, i, r, ds.Kernel().Now()))
				})
			}
		})
	}
	if err := g.Run(); err != nil {
		t.Fatalf("group run: %v", err)
	}
	return m.signature()
}

// runOnKernel runs the same model on a plain (pre-shard) kernel, with
// sends expressed as After callbacks — the sequential reference.
func (m *ringModel) runOnKernel(t *testing.T, k *Kernel, delay Duration) string {
	t.Helper()
	m.logs = make([][]string, m.nodes)
	for i := 0; i < m.nodes; i++ {
		i := i
		k.Spawn(fmt.Sprintf("node%d", i), func(p *Proc) {
			for r := 0; r < m.rounds; r++ {
				p.Sleep(Duration(p.Rand().Intn(5000)) * time.Nanosecond)
				m.logs[i] = append(m.logs[i], fmt.Sprintf("n%d send r%d @%d", i, r, p.Now()))
				dst := (i + 1) % m.nodes
				r := r
				k.After(delay, func() {
					m.logs[dst] = append(m.logs[dst],
						fmt.Sprintf("n%d recv from n%d r%d @%d", dst, i, r, k.Now()))
				})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("kernel run: %v", err)
	}
	return m.signature()
}

func (m *ringModel) signature() string {
	var b strings.Builder
	for _, log := range m.logs {
		for _, line := range log {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestShardWorkersBitIdentical is the engine's differential gate: the same
// 4-shard model must produce byte-identical logs on the in-line sequential
// loop (workers=1, the reference) and on the pinned-worker barrier at 2, 4,
// and 16 workers, with adaptive widening on and off, and across repeated
// runs at the same width.
func TestShardWorkersBitIdentical(t *testing.T) {
	const lookahead = 200 * time.Nanosecond
	run := func(workers int, adaptive bool) string {
		g := NewShardGroup(7, 4, lookahead)
		g.SetWorkers(workers)
		g.SetAdaptive(adaptive)
		m := &ringModel{nodes: 8, rounds: 40}
		return m.runOnGroup(t, g, lookahead)
	}
	ref := run(1, false)
	if ref == "" {
		t.Fatal("empty signature")
	}
	for _, adaptive := range []bool{false, true} {
		for _, w := range []int{1, 2, 4, 16} {
			if got := run(w, adaptive); got != ref {
				t.Errorf("workers=%d adaptive=%v signature differs from workers=1 static", w, adaptive)
			}
		}
	}
	if again := run(16, true); again != ref {
		t.Errorf("repeated workers=16 run differs")
	}
}

// TestShardSingleMatchesPlainKernel is the pre-shard compatibility gate: a
// single-shard group must execute byte-identically to the plain sequential
// kernel — same seed, same spawn order, same event (t, seq) interleaving.
func TestShardSingleMatchesPlainKernel(t *testing.T) {
	const delay = 150 * time.Nanosecond
	mk := &ringModel{nodes: 6, rounds: 30}
	plain := mk.runOnKernel(t, NewKernel(11), delay)
	mg := &ringModel{nodes: 6, rounds: 30}
	g := NewShardGroup(11, 1, 0)
	grouped := mg.runOnGroup(t, g, delay)
	if plain != grouped {
		t.Errorf("single-shard group diverges from plain kernel:\nplain:\n%s\ngroup:\n%s", plain, grouped)
	}
}

// TestShardZeroLookaheadLockstep checks the degenerate topology: with zero
// lookahead the engine falls back to instant-by-instant lockstep, zero-delay
// cross-shard messages are processed at the instant they were sent, and the
// order is still deterministic at every worker count.
func TestShardZeroLookaheadLockstep(t *testing.T) {
	run := func(workers int) string {
		g := NewShardGroup(3, 2, 0)
		g.SetWorkers(workers)
		var log []string
		g.Shard(0).Kernel().Spawn("pinger", func(p *Proc) {
			for r := 0; r < 10; r++ {
				p.Sleep(100 * time.Nanosecond)
				sent := p.Now()
				r := r
				g.Shard(0).Send(1, 0, func(ds *Shard) {
					if ds.Kernel().Now() != sent {
						t.Errorf("zero-delay message sent @%d processed @%d", sent, ds.Kernel().Now())
					}
					log = append(log, fmt.Sprintf("r%d @%d", r, ds.Kernel().Now()))
				})
			}
		})
		if err := g.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return strings.Join(log, "\n")
	}
	ref := run(1)
	if got := run(8); got != ref {
		t.Errorf("lockstep run differs between workers=1 and workers=8:\n%s\nvs\n%s", ref, got)
	}
}

// TestShardWindowBoundaryDelivery pins the trickiest conservative-sync
// edge: a message whose delay is exactly the lookahead lands exactly on
// the next window's start boundary. It must be delivered before that
// window executes — processed at precisely send-time + lookahead — and
// never lost or deferred a window.
func TestShardWindowBoundaryDelivery(t *testing.T) {
	const lookahead = 100 * time.Nanosecond
	g := NewShardGroup(5, 2, lookahead)
	var got []Time
	g.Shard(0).Kernel().Spawn("edge", func(p *Proc) {
		for r := 0; r < 20; r++ {
			// Sleep exactly one lookahead so sends sit exactly on window
			// starts, then send with delay exactly equal to the lookahead.
			p.Sleep(lookahead)
			sent := p.Now()
			g.Shard(0).Send(1, lookahead, func(ds *Shard) {
				got = append(got, ds.Kernel().Now()-sent)
			})
		}
	})
	if err := g.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20 boundary messages", len(got))
	}
	for i, d := range got {
		if Duration(d) != lookahead {
			t.Errorf("message %d processed %v after send; want exactly %v", i, Duration(d), lookahead)
		}
	}
}

// TestShardKillWhileAwaitingRemote kills a process that is parked on a
// future whose value arrives as a cross-shard response. The late response
// must still complete the future, wake the killed process into its unwind,
// and leave the group drainable with no leaked live processes.
func TestShardKillWhileAwaitingRemote(t *testing.T) {
	const lookahead = 100 * time.Nanosecond
	g := NewShardGroup(9, 2, lookahead)
	k0 := g.Shard(0).Kernel()
	resp := NewFuture[int](k0)
	reached := false
	requester := k0.Spawn("requester", func(p *Proc) {
		g.Shard(0).Send(1, lookahead, func(ds *Shard) {
			// Serve remotely, then reply to the requester's home shard.
			ds.Send(0, lookahead, func(home *Shard) {
				resp.Set(42)
			})
		})
		resp.Await(p)
		reached = true // must never run: the proc is killed while parked
	})
	k0.Spawn("killer", func(p *Proc) {
		p.Sleep(50 * time.Nanosecond)
		requester.Kill()
	})
	if err := g.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if reached {
		t.Error("killed requester ran past its remote await")
	}
	if v, ok := resp.Value(); !ok || v != 42 {
		t.Errorf("remote response lost: value %d, set %v", v, ok)
	}
	for i := 0; i < g.Shards(); i++ {
		if live := g.Shard(i).Kernel().Live(); live != 0 {
			t.Errorf("shard %d leaked %d live processes", i, live)
		}
	}
}

// TestShardGroupDeadlock checks group-level deadlock detection: a process
// parked forever on one shard, with every other shard idle, must surface
// as a DeadlockError naming it — but only once no cross-shard message can
// possibly save it.
func TestShardGroupDeadlock(t *testing.T) {
	g := NewShardGroup(1, 3, time.Microsecond)
	k2 := g.Shard(2).Kernel()
	k2.Spawn("stuck", func(p *Proc) {
		NewFuture[struct{}](k2).Await(p)
	})
	g.Shard(0).Kernel().Spawn("busy", func(p *Proc) {
		p.Sleep(time.Millisecond)
	})
	err := g.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "stuck") {
		t.Errorf("deadlock report %v does not name the stuck process", de.Blocked)
	}
}

// TestShardAdaptiveWidensWindows checks that adaptive widening actually
// buys fewer barriers on a skewed model — one shard ticking every 100ns,
// the other only every 5µs, lookahead 200ns — while producing the same
// result. The static engine must chop the run into ~lookahead-sized
// windows; the adaptive one can run the busy shard up to the idle shard's
// horizon.
func TestShardAdaptiveWidensWindows(t *testing.T) {
	const lookahead = 200 * time.Nanosecond
	run := func(adaptive bool) (string, int64) {
		g := NewShardGroup(3, 2, lookahead)
		g.SetWorkers(2)
		g.SetAdaptive(adaptive)
		var log []string
		g.Shard(0).Kernel().Spawn("busy", func(p *Proc) {
			for r := 0; r < 500; r++ {
				p.Sleep(100 * time.Nanosecond)
			}
			log = append(log, fmt.Sprintf("busy done @%d", p.Now()))
		})
		g.Shard(1).Kernel().Spawn("sparse", func(p *Proc) {
			for r := 0; r < 10; r++ {
				p.Sleep(5 * time.Microsecond)
				sent := p.Now()
				r := r
				g.Shard(1).Send(0, lookahead, func(ds *Shard) {
					log = append(log, fmt.Sprintf("r%d @%d(sent %d)", r, ds.Kernel().Now(), sent))
				})
			}
		})
		if err := g.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return strings.Join(log, "\n"), g.Windows()
	}
	staticSig, staticWin := run(false)
	adaptSig, adaptWin := run(true)
	if staticSig != adaptSig {
		t.Errorf("adaptive widening changed results:\nstatic:\n%s\nadaptive:\n%s", staticSig, adaptSig)
	}
	if adaptWin >= staticWin {
		t.Errorf("adaptive windows did not reduce barriers: %d adaptive vs %d static", adaptWin, staticWin)
	}
}

// TestShardPairLookaheadFloors checks the per-pair delivery floors: a send
// at the pair floor (above the uniform lookahead) is accepted and
// delivered on time, a send below its pair floor panics even though it
// clears the group lookahead, and a malformed matrix is rejected.
func TestShardPairLookaheadFloors(t *testing.T) {
	const base = 100 * time.Nanosecond
	mk := func() *ShardGroup {
		g := NewShardGroup(5, 3, base)
		g.SetPairLookahead([][]Duration{
			{0, base, 4 * base},
			{base, 0, 4 * base},
			{4 * base, 4 * base, 0},
		})
		return g
	}
	g := mk()
	var deliveries []Duration
	g.Shard(0).Kernel().Spawn("sender", func(p *Proc) {
		sent := p.Now()
		g.Shard(0).Send(2, 4*base, func(ds *Shard) {
			deliveries = append(deliveries, ds.Kernel().Now().Sub(sent))
		})
		g.Shard(0).Send(1, base, func(ds *Shard) {
			deliveries = append(deliveries, ds.Kernel().Now().Sub(sent))
		})
	})
	if err := g.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(deliveries) != 2 || deliveries[0] != base || deliveries[1] != 4*base {
		t.Errorf("pair-floor deliveries %v, want [%v %v]", deliveries, base, 4*base)
	}
	g2 := mk()
	g2.Shard(0).Kernel().Spawn("cheater", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("send below the pair floor did not panic")
			}
			panic(killedErr{"cheater"})
		}()
		g2.Shard(0).Send(2, base, func(*Shard) {}) // clears base, violates the 4*base pair floor
	})
	func() {
		defer func() { recover() }()
		g2.Run()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pair floor below group lookahead was accepted")
			}
		}()
		NewShardGroup(1, 2, base).SetPairLookahead([][]Duration{{0, base / 2}, {base / 2, 0}})
	}()
}

// TestShardKillWhileParkedAtBarrier kills a process on one shard — via a
// cross-shard delivery — while the pinned workers of a multi-worker group
// are cycling through the epoch barrier. The kill must unwind cleanly, the
// group must drain, and the pinned pool must be torn down when RunUntil
// returns so nothing leaks across runs.
func TestShardKillWhileParkedAtBarrier(t *testing.T) {
	const lookahead = 100 * time.Nanosecond
	base := runtime.NumGoroutine()
	g := NewShardGroup(13, 4, lookahead)
	g.SetWorkers(4)
	k1 := g.Shard(1).Kernel()
	gate := NewFuture[struct{}](k1)
	victimRanPast := false
	victim := k1.Spawn("victim", func(p *Proc) {
		gate.Await(p) // parked until the assassin wakes it into its unwind
		victimRanPast = true
	})
	for i := 0; i < 4; i++ {
		i := i
		g.Shard(i).Kernel().Spawn(fmt.Sprintf("load%d", i), func(p *Proc) {
			for r := 0; r < 50; r++ {
				p.Sleep(Duration(p.Rand().Intn(300)) * time.Nanosecond)
				g.Shard(i).Send((i+1)%4, lookahead, func(*Shard) {})
			}
		})
	}
	g.Shard(2).Kernel().Spawn("assassin", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		g.Shard(2).Send(1, lookahead, func(ds *Shard) {
			// The victim lives on shard 1, which this closure runs on.
			//simlint:ignore shardsafe
			victim.Kill()
			// Kill alone does not wake a parked process; set its gate so
			// the resume sees the kill flag and unwinds.
			//simlint:ignore shardsafe
			gate.Set(struct{}{})
		})
	})
	if err := g.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if victimRanPast {
		t.Error("killed victim ran past its await")
	}
	for i := 0; i < g.Shards(); i++ {
		if live := g.Shard(i).Kernel().Live(); live != 0 {
			t.Errorf("shard %d leaked %d live processes", i, live)
		}
	}
	// The pinned pool must be gone: RunUntil tears workers down on exit.
	for try := 0; try < 100; try++ {
		if runtime.NumGoroutine() <= base {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("pinned workers leaked: %d goroutines, started with %d", n, base)
	}
	// And a second run on the same group must rebuild the pool lazily.
	g.Shard(0).Kernel().Spawn("again", func(p *Proc) {
		p.Sleep(time.Microsecond)
		g.Shard(0).Send(3, lookahead, func(*Shard) {})
	})
	g.Shard(3).Kernel().Spawn("again2", func(p *Proc) { p.Sleep(time.Microsecond) })
	if err := g.Run(); err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestShardPanicInPinnedWorkerLowestWins panics two shards inside the same
// window and checks the pinned-worker engine re-raises the lowest shard's
// panic, deterministically, at every worker count.
func TestShardPanicInPinnedWorkerLowestWins(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		g := NewShardGroup(1, 4, time.Microsecond)
		g.SetWorkers(workers)
		for i := 0; i < 4; i++ {
			i := i
			k := g.Shard(i).Kernel()
			// Keep every shard busy so the panic window is genuinely
			// multi-shard, then blow up shards 2 and 1 at the same instant.
			k.Spawn("load", func(p *Proc) {
				for r := 0; r < 20; r++ {
					p.Sleep(100 * time.Nanosecond)
				}
			})
			if i == 1 || i == 2 {
				k.After(500*time.Nanosecond, func() { panic(fmt.Sprintf("boom shard %d", i)) })
			}
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			g.Run()
			return nil
		}()
		if s, _ := got.(string); s != "boom shard 1" {
			t.Errorf("workers=%d: recovered %v, want the lowest shard's panic", workers, got)
		}
	}
}

// TestShardSendBelowLookaheadPanics pins the conservative contract: a
// cross-shard send below the lookahead would let a message land inside a
// window another shard is already executing, so it must panic loudly
// rather than corrupt causality.
func TestShardSendBelowLookaheadPanics(t *testing.T) {
	g := NewShardGroup(1, 2, time.Microsecond)
	g.Shard(0).Kernel().Spawn("cheater", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("send below lookahead did not panic")
			}
			panic(killedErr{"cheater"}) // unwind the process cleanly
		}()
		g.Shard(0).Send(1, 0, func(*Shard) {})
	})
	func() {
		defer func() { recover() }()
		g.Run()
	}()
}
