package replica

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// testEnv adopts one host per node of a fresh n-node rack, each with its
// own local engine.
func testEnv(k *sim.Kernel, n int) (*Env, []*Host) {
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = n
	c := cluster.New(k, ccfg)
	e := &Env{K: k, Cluster: c}
	hosts := make([]*Host, n)
	for i, node := range c.Nodes {
		hosts[i] = new(Host)
		e.Adopt(hosts[i], node, storage.NewEngine(k, storage.DefaultConfig(),
			storage.LocalIO{Disk: node.Disk}, storage.DiskLog{Disk: node.Disk}, int64(i+1)))
	}
	return e, hosts
}

// reconcileCase decodes fuzz input into responses from up to eight distinct
// nodes, four bytes each: node id; flags (1 failed, 2 no row, 4 deleted);
// the versions, 0–3, of fields a and b (0: absent); the tombstone's. A
// cell's size names the node that wrote it, so the test can tell which
// replica's copy won.
func reconcileCase(data []byte) []Response {
	var resps []Response
	seen := [8]bool{}
	for ; len(data) >= 4 && len(resps) < 8; data = data[4:] {
		id := int(data[0] % 8)
		if seen[id] {
			continue
		}
		seen[id] = true
		r := Response{Host: &Host{Node: &cluster.Node{ID: id}}, OK: data[1]&1 == 0}
		if data[1]&2 == 0 {
			r.Row = storage.NewRow()
			for i, f := range []string{"a", "b"} {
				if ver := kv.Version(data[2] >> (2 * i) % 4); ver > 0 {
					r.Row.Apply(kv.Record{f: kv.SizedValue(10*id + i + 1)}, ver)
				}
			}
			if data[1]&4 != 0 {
				r.Row.Delete(kv.Version(data[3] % 4))
			}
			r.Ver = r.Row.Version()
		}
		resps = append(resps, r)
	}
	return resps
}

// refReconcile is last-write-wins stated directly: per field the highest
// version, among equals the lowest node id; the newest tombstone shadows
// every cell it is not older than. A failed response and a response
// without a row contribute nothing.
func refReconcile(resps []Response) (rec kv.Record, ver kv.Version, held bool) {
	type winner struct {
		cell storage.Cell
		node int
	}
	cells := map[string]winner{}
	var tomb kv.Version
	for _, r := range resps {
		if !r.OK || r.Row == nil {
			continue
		}
		held = true
		tomb = max(tomb, r.Row.Tomb)
		for _, f := range []string{"a", "b"} {
			c, ok := r.Row.Cell(f)
			if w, seen := cells[f]; ok && (!seen || c.Ver > w.cell.Ver || c.Ver == w.cell.Ver && r.Host.Node.ID < w.node) {
				cells[f] = winner{c, r.Host.Node.ID}
			}
		}
	}
	ver = tomb
	for f, w := range cells {
		ver = max(ver, w.cell.Ver)
		if w.cell.Ver > tomb {
			if rec == nil {
				rec = kv.Record{}
			}
			rec[f] = w.cell.Val
		}
	}
	return rec, ver, held
}

func checkReconcile(t *testing.T, data []byte) {
	resps := reconcileCase(data)
	wantRec, wantVer, held := refReconcile(resps)
	// The result must not depend on the order the responses arrived in.
	reversed := slices.Clone(resps)
	slices.Reverse(reversed)
	rotated := append(slices.Clone(resps[len(resps)/2:]), resps[:len(resps)/2]...)
	for _, order := range [][]Response{resps, reversed, rotated} {
		got := Reconcile(order, nil)
		if (got != nil) != held {
			t.Fatalf("case %v: reconciled row %v, reference holds a row: %t", data, got, held)
		}
		if got == nil {
			continue
		}
		if !reflect.DeepEqual(got.Record(), wantRec) || got.Version() != wantVer {
			t.Fatalf("case %v: reconciled %v @%d, reference %v @%d", data, got.Record(), got.Version(), wantRec, wantVer)
		}
	}
}

var reconcileCases = [][]byte{
	{},
	{3, 0, 0b0101, 0},                                // one replica
	{5, 0, 0b0010, 0, 2, 0, 0b0010, 0},               // version tie on a: node 2 wins whatever the order
	{2, 0, 0b0010, 0, 5, 0, 0b0010, 0},               // the same, arriving the other way round
	{1, 1, 0b1111, 0, 4, 0, 0b0101, 0},               // the newer copy's response failed
	{1, 2, 0, 0, 4, 0, 0b0101, 0},                    // one replica holds nothing
	{0, 4, 0b0101, 2, 6, 0, 0b1101, 0},               // tombstone on one, a newer cell on the other
	{7, 0, 0b0001, 0, 3, 0, 0b0100, 0, 3, 0, 15, 15}, // partial writes; a repeated node id is skipped
}

// TestReconcileMatchesReference checks the fold against the directly stated
// rule on the named cases and on random response sets.
func TestReconcileMatchesReference(t *testing.T) {
	for _, c := range reconcileCases {
		checkReconcile(t, c)
	}
	rng := sim.NewKernel(19).Rand()
	data := make([]byte, 4*6)
	for n := 0; n < 5000; n++ {
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		checkReconcile(t, data)
	}
}

func FuzzReconcile(f *testing.F) {
	for _, c := range reconcileCases {
		f.Add(c)
	}
	f.Fuzz(checkReconcile)
}

// TestApplyReportsOnlyWhenAsked: a stand-in's copy (objstore's handoff
// server) is applied and traced like any other but never reaches the
// oracle; a replica's does.
func TestApplyReportsOnlyWhenAsked(t *testing.T) {
	k := sim.NewKernel(3)
	e, hosts := testEnv(k, 2)
	o := consistency.New()
	e.SetOracle(o)
	key := kv.Key("user1")
	k.Spawn("driver", func(p *sim.Proc) {
		m := Mutation{Key: key, Write: &storage.Write{Rec: kv.Record{"v": kv.SizedValue(8)}, Ver: e.Version()}}
		o.WriteBegin(key, m.Ver, 2, p.Now())
		hosts[0].Apply(p, m, consistency.ApplyHint, false)
		if n := o.Report().HintApplies; n != 0 {
			t.Errorf("unreported apply reached the oracle: %d hint applies", n)
		}
		hosts[1].Apply(p, m, consistency.ApplyHint, true)
		if n := o.Report().HintApplies; n != 1 {
			t.Errorf("reported apply: %d hint applies, want 1", n)
		}
		for i, h := range hosts {
			if row := h.Engine.Get(p, key); row == nil || row.Version() != m.Ver {
				t.Errorf("host %d does not hold the mutation: %v", i, row)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFetchBillsByCaller pins the two modelled facts a Caller carries: a
// client's fetch queues at the request stage and its messages are the op's
// own network time; a database node's is an internal verb, CPU inside the
// storage span and each message a traced hop, free when it asks itself.
func TestFetchBillsByCaller(t *testing.T) {
	phases := func(c func(hosts []*Host) (Caller, *Host)) string {
		k := sim.NewKernel(5)
		e, hosts := testEnv(k, 3)
		tr := trace.New()
		tr.KeepSpans(64)
		tr.BeginMeasure(0)
		e.SetTracer(tr)
		k.Spawn("driver", func(p *sim.Proc) {
			caller, h := c(hosts)
			tr.StartOp(p, trace.ClassRead)
			if r := h.Fetch(p, caller, "user1", false, nil); !r.OK || r.Row != nil || r.Host != h {
				t.Errorf("fetch of an absent row: %+v", r)
			}
			tr.EndOp(p)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, sp := range tr.Spans() {
			if !sp.Root {
				out = append(out, fmt.Sprintf("%v@%d", sp.Phase, sp.Node))
			}
		}
		return fmt.Sprint(out)
	}
	for _, c := range []struct {
		name, want string
		pick       func(hosts []*Host) (Caller, *Host)
	}{
		{"client", "[coord@1 storage@1]", func(h []*Host) (Caller, *Host) { return Caller{Node: h[0].Node, Client: true}, h[1] }},
		{"node", "[fanout@1 storage@1 fanout@0]", func(h []*Host) (Caller, *Host) { return Caller{Node: h[0].Node}, h[1] }},
		{"itself", "[storage@2]", func(h []*Host) (Caller, *Host) { return Caller{Node: h[2].Node}, h[2] }},
	} {
		if got := phases(c.pick); got != c.want {
			t.Errorf("%s: spans %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSharedReadPathAllocs fences the bodies every point read now runs
// through, untraced and unobserved as the performance experiments run
// them: serving a request, fetching a row as a node or as a client and
// reconciling the replicas allocate nothing — when the rows are flushed and
// agree, and equally when one replica holds a newer write in its memtable,
// so that its fetch snapshots a merge and the reconciliation builds one, all
// in scratch rows the caller keeps.
func TestSharedReadPathAllocs(t *testing.T) {
	k := sim.NewKernel(7)
	e, hosts := testEnv(k, 3)
	key := kv.Key("user1")
	k.Spawn("driver", func(p *sim.Proc) {
		m := Mutation{Key: key, Write: &storage.Write{Rec: kv.Record{"v": kv.SizedValue(100)}, Ver: e.Version()}}
		for _, h := range hosts {
			h.Apply(p, m, consistency.ApplyWrite, true)
		}
		e.FlushAll()
		p.Sleep(2e9) // the flushes land
		node, client := Caller{Node: hosts[0].Node}, Caller{Node: hosts[0].Node, Client: true}
		var resps [3]Response
		var fetched [3]storage.Row
		var merged storage.Row
		read := func() *storage.Row {
			e.Serve(p, hosts[0].Node)
			resps[0] = hosts[0].Fetch(p, node, key, false, &fetched[0])
			resps[1] = hosts[1].Fetch(p, node, key, true, &fetched[1])
			resps[2] = hosts[2].Fetch(p, client, key, false, &fetched[2])
			return Reconcile(resps[:], &merged)
		}
		inSync := func() {
			if row := read(); row != resps[0].Row || row == &fetched[0] || row.Version() != m.Ver {
				t.Errorf("reconciled %v, want host 0's own stored row at %d", row, m.Ver)
			}
		}
		inSync() // the block cache is warm from here on
		if allocs := testing.AllocsPerRun(200, inSync); allocs != 0 {
			t.Errorf("in sync: serve + three fetches + reconcile: %.2f allocs, want 0", allocs)
		}

		// Host 2 alone takes a newer write of another field: its fetch is a
		// memtable-over-SSTable merge, and the reconciliation gains from it.
		newer := Mutation{Key: key, Write: &storage.Write{Rec: kv.Record{"w": kv.SizedValue(7)}, Ver: e.Version()}}
		hosts[2].Apply(p, newer, consistency.ApplyWrite, true)
		diverged := func() {
			row := read()
			if resps[2].Row != &fetched[2] || row != &merged {
				t.Errorf("diverged read did not land in the caller's scratch rows")
			}
			if row.Version() != newer.Ver || row.ProjectedBytes(nil) != kv.FieldBytes("v", m.Rec["v"])+kv.FieldBytes("w", newer.Rec["w"]) {
				t.Errorf("reconciled %v @%d, want v and w @%d", row.Record(), row.Version(), newer.Ver)
			}
		}
		diverged() // the scratch rows grow to the row's width once
		if allocs := testing.AllocsPerRun(200, diverged); allocs != 0 {
			t.Errorf("diverged: serve + three fetches + reconcile: %.2f allocs, want 0", allocs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestScanAllRunsOnAPooledOp: scans into a caller's reused slice answer as
// scans into a fresh one do, with a host down and from two processes at once
// (each on its own op); and an op on the free list keeps its buffers'
// capacity but none of the rows they held, so a scan does not pin what
// compaction has since replaced.
func TestScanAllRunsOnAPooledOp(t *testing.T) {
	k := sim.NewKernel(3)
	e, hosts := testEnv(k, 4)
	caller := Caller{Node: hosts[0].Node}
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 60; i++ { // key i on hosts i%4 and (i+1)%4; a third flushed
			m := Mutation{Key: kv.Key(fmt.Sprintf("user%03d", i)), Write: &storage.Write{Rec: kv.Record{"v": kv.SizedValue(100 + i)}, Ver: e.Version()}}
			hosts[i%4].Apply(p, m, consistency.ApplyWrite, true)
			hosts[(i+1)%4].Apply(p, m, consistency.ApplyWrite, true)
			if i == 20 {
				e.FlushAll()
			}
		}
		p.Sleep(2e9)
		hosts[3].Node.Fail()
		keys := func(rows []kv.KV) (out []string) {
			for _, r := range rows {
				out = append(out, fmt.Sprint(r.Key, r.Bytes()))
			}
			return out
		}
		scanner := func(q *sim.Proc) {
			var into []kv.KV
			for n := 0; n < 30; n++ {
				start, limit := kv.Key(fmt.Sprintf("user%03d", (7*n)%50)), 1+(11*n)%25
				fresh, ok := e.ScanAll(q, "scan", caller, 2, start, limit, nil, nil)
				if !ok || len(fresh) == 0 || fresh[0].Key < start {
					t.Fatalf("scan %d from %s: %v, ok = %t", n, start, keys(fresh), ok)
				}
				if into, ok = e.ScanAll(q, "scan", caller, 2, start, limit, nil, into); !ok || !slices.Equal(keys(into), keys(fresh)) {
					t.Fatalf("scan %d from %s into a used slice: %v, into a fresh one %v", n, start, keys(into), keys(fresh))
				}
			}
		}
		other := k.Spawn("second scanner", scanner)
		scanner(p)
		other.Done().Await(p)
		if len(e.scanOps) != 2 {
			t.Fatalf("%d scan ops on the free list, want one per concurrent scanner", len(e.scanOps))
		}
		for _, op := range e.scanOps {
			held := 0
			for i, l := range op.Built() {
				held += cap(l.rows)
				for _, r := range l.rows[:cap(l.rows)] {
					if r.Row != nil || r.Key != "" {
						t.Fatalf("op on the free list still holds leg %d's row %s", i, r.Key)
					}
				}
			}
			for i, part := range op.parts {
				if part != nil {
					t.Fatalf("op on the free list still holds host %d's rows", i)
				}
			}
			if held == 0 || op.start != "" || op.Held() {
				t.Fatalf("op on the free list: %d rows of buffer kept, start %q, held %t", held, op.start, op.Held())
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
