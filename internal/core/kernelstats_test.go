package core

import (
	"testing"

	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/ycsb"
)

// TestKernelStatsPerSimop prints, for a small cass_mixed-shaped cell
// (Cassandra ONE/ONE, read repair on, 50/50 zipfian read/update) and the
// same input through HBase, how often the kernel parked a process, how
// often control passed to another goroutine (a switch, at a park or at a
// process's end; a process whose own wake came next kept control), and
// how often it had to allocate an
// event struct, per simulated YCSB operation. Parks and switches per simop
// are the size of the prize for ROADMAP item 10 (fewer goroutine switches
// per op); free-list misses per simop is the evidence
// that a canceled timeout's event is recycled — before eager unlinking it
// was one miss per AwaitTimeout, i.e. at least one per operation. Beside
// them, what the storage engines did for the op: how many row lookups, and
// how many of those could not hand out a stored row as it was and had to
// snapshot the memtable's or merge two sources (Engine.Copies) — the reads
// that cost a copy, into the caller's scratch row or a fresh one.
func TestKernelStatsPerSimop(t *testing.T) {
	o := SmokeOptions()
	spec := ycsb.ReadUpdate(o.StressRecords)
	for _, b := range []backend{cassandraAt(3, levels()[0]), hbaseAt(3)} {
		d := deploy(o, b, spec)
		var res ycsb.Result
		var st sim.Stats
		var gets, copies int64
		lookups := func(sign int64) {
			var engines []*storage.Engine
			if d.ca != nil {
				engines = d.ca.Engines()
			} else {
				engines = d.hb.Engines()
			}
			for _, e := range engines {
				gets += sign * e.Gets
				copies += sign * e.Copies
			}
		}
		if err := d.run(o.Threads, func(p *sim.Proc) {
			before := d.k.Stats()
			lookups(-1)
			res = d.phase(p, spec, o.stressRun(0))
			lookups(+1)
			st = d.k.Stats()
			st.Events -= before.Events
			st.Parks -= before.Parks
			st.Switches -= before.Switches
			st.EventMisses -= before.EventMisses
			st.EventHits -= before.EventHits
			st.ProcMisses -= before.ProcMisses
			st.TimersScheduled -= before.TimersScheduled
			st.TimersCanceled -= before.TimersCanceled
			st.TimersUnlinked -= before.TimersUnlinked
		}); err != nil {
			t.Fatal(err)
		}
		ops := float64(o.StressOps)
		t.Logf("%-8s per simop: %.1f events, %.1f parks, %.1f switches, %.4f event free-list misses, %.4f proc-pool misses; %.2f deadlines armed, %.2f canceled, %.2f of those unlinked eagerly",
			b.db, float64(st.Events)/ops, float64(st.Parks)/ops, float64(st.Switches)/ops, float64(st.EventMisses)/ops, float64(st.ProcMisses)/ops,
			float64(st.TimersScheduled)/ops, float64(st.TimersCanceled)/ops, float64(st.TimersUnlinked)/ops)
		t.Logf("%-8s per simop: %.2f engine gets, %.2f of them copies (memtable snapshot or cross-source merge)",
			b.db, float64(gets)/ops, float64(copies)/ops)
		if res.Errors != 0 {
			t.Errorf("%s: %d failed operations", b.db, res.Errors)
		}
		// A miss is a new high-water mark of the event free list, so a burst
		// of pending events (the queues a GC pause releases) costs misses
		// once: up to 0.13 per deadline armed at seeds 1-8. The regression
		// this guards, a canceled deadline whose event is not recycled at
		// once, costs 0.86.
		if st.EventMisses*2 > st.TimersScheduled {
			t.Errorf("%s: %d event free-list misses for %d deadlines armed, want under half: canceled or fired events are not coming back",
				b.db, st.EventMisses, st.TimersScheduled)
		}
		if st.TimersCanceled != st.TimersUnlinked {
			t.Logf("%s: %d canceled deadlines were dropped lazily (due batch or fast lane)", b.db, st.TimersCanceled-st.TimersUnlinked)
		}
	}
}
