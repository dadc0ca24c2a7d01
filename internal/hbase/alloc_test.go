package hbase

import (
	"strings"
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// TestPointReadAllocs is cassandra's TestPointOpAllocs read case for the
// region server: a key rewritten in part since its flush — a memtable row
// over a store file's, which the read has to snapshot and merge — reads for
// the same host allocations as a flushed one, because the copy lands in the
// client's scratch row. The bound on the flushed read is the measured count
// plus one.
func TestPointReadAllocs(t *testing.T) {
	measure := func(rewritten bool) float64 {
		k := sim.NewKernel(7)
		db, client := testDB(k, 4, 3)
		const records = 64
		var allocs float64
		k.Spawn("client", func(p *sim.Proc) {
			rec := kv.Record{}
			for _, f := range []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"} {
				rec[f] = kv.SizedValue(100)
			}
			for i := 0; i < records; i++ {
				if err := client.Insert(p, key(i*150), rec); err != nil {
					t.Error(err)
					return
				}
			}
			db.FlushAll()
			p.Sleep(2 * time.Second)
			for i := 0; rewritten && i < records; i++ {
				if err := client.Update(p, key(i*150), kv.Record{"f3": kv.SizedValue(7)}); err != nil {
					t.Error(err)
					return
				}
			}
			i := 0
			read := func() {
				got, err := client.Read(p, key(i%records*150), nil)
				if err != nil || len(got) != 10 || rewritten != (got["f3"].Bytes() == 7) {
					t.Errorf("read %d: %v, err = %v", i, got, err)
				}
				i++
			}
			for range 2 * records {
				read()
			}
			allocs = testing.AllocsPerRun(4*records, read)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return allocs
	}
	flushed, rewritten := measure(false), measure(true)
	t.Logf("allocs/op: read of a flushed key %.2f, of a key rewritten since the flush %.2f", flushed, rewritten)
	if flushed > 6 {
		t.Errorf("read of a flushed key: %.2f allocs/op, want at most 6", flushed)
	}
	if rewritten > flushed {
		t.Errorf("read of a key rewritten since the flush: %.2f allocs/op, a flushed key's costs %.2f", rewritten, flushed)
	}
}

// TestClientSharedByTwoProcessesPanicsByName: a Client's scratch row serves
// one read at a time. A second process that reads through the same client
// while the first is inside the region server would overwrite the row the
// first is about to project; the client refuses by name instead.
func TestClientSharedByTwoProcessesPanicsByName(t *testing.T) {
	k := sim.NewKernel(7)
	_, client := testDB(k, 4, 3)
	for i := 0; i < 2; i++ {
		k.Spawn("reader", func(p *sim.Proc) { client.Read(p, key(i), nil) })
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "hbase: Client.Read") || !strings.Contains(r, "one process at a time") {
			t.Errorf("two processes on one client: recovered %q, want the client's own panic", r)
		}
	}()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	t.Error("two concurrent reads through one client both returned")
}
