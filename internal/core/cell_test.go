package core

import (
	"fmt"
	"strings"
	"testing"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/ycsb"
)

// readSpy reports every key read through it.
type readSpy struct {
	kv.Client
	onRead func(kv.Key)
}

func (s readSpy) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	s.onRead(key)
	return s.Client.Read(p, key, fields)
}

// TestPhaseCarriesInsertedCount pins the dependency between phases on one
// deployment: an insert phase grows the key space, and the read phase after
// it draws from the grown space (Fig. 1's insert → scan, Fig. 2's
// read-latest → scan) rather than from the loaded one.
func TestPhaseCarriesInsertedCount(t *testing.T) {
	const loaded, ops = 200, 300
	load := ycsb.MicroUpdate(loaded)
	d := deploy(SmokeOptions(), hbaseAt(1), load)
	rcfg := ycsb.RunConfig{Threads: 4, Ops: ops}
	var afterLoad, afterInsert, afterRead int64
	var grownReads int
	var read ycsb.Result
	err := d.run(4, func(p *sim.Proc) {
		afterLoad = d.records
		d.phase(p, ycsb.MicroInsert(0), rcfg)
		afterInsert = d.records

		grown := map[kv.Key]bool{}
		for n := afterLoad; n < afterInsert; n++ {
			grown[load.KeyFor(n)] = true
		}
		connect := d.newClient
		d.newClient = func() kv.Client {
			return readSpy{connect(), func(k kv.Key) {
				if grown[k] {
					grownReads++
				}
			}}
		}
		read = d.phase(p, ycsb.MicroRead(0), rcfg)
		afterRead = d.records
	})
	if err != nil {
		t.Fatal(err)
	}
	if afterLoad != loaded || afterInsert != loaded+ops || afterRead != afterInsert {
		t.Errorf("key space after load/insert/read = %d/%d/%d, want %d/%d/%d",
			afterLoad, afterInsert, afterRead, loaded, loaded+ops, loaded+ops)
	}
	if grownReads == 0 {
		t.Error("the read phase never touched a key the insert phase added")
	}
	if read.NotFound != 0 || read.Errors != 0 {
		t.Errorf("read phase: %d not-found, %d errors on a fully inserted key space", read.NotFound, read.Errors)
	}
}

// TestFig1CellsCanonicalOrder pins Fig. 1's grid: the paper's cells
// exactly as Fig. 2 sweeps them, then the counterfactual twins F4′ and F2′
// read, each labelled apart from its paper cell. Twins run at the highest
// RF and at the lowest only above RF 1, where a twin would rerun its paper
// cell (TestFig1TwinsInertAtRF1).
func TestFig1CellsCanonicalOrder(t *testing.T) {
	quick, rf24 := QuickOptions(), QuickOptions()
	rf24.ReplicationFactors = []int{2, 4}
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"smoke", SmokeOptions(), "[HBase/strong/rf1 HBase/strong/rf3 Cassandra/ONE/rf1 Cassandra/ONE/rf3 " +
			"HBase/strong/rf3/sync-replication Cassandra/ONE/rf3/read-repair-off]"},
		{"quick", quick, "[HBase/strong/rf1 HBase/strong/rf2 HBase/strong/rf3 HBase/strong/rf4 HBase/strong/rf5 HBase/strong/rf6 " +
			"Cassandra/ONE/rf1 Cassandra/ONE/rf2 Cassandra/ONE/rf3 Cassandra/ONE/rf4 Cassandra/ONE/rf5 Cassandra/ONE/rf6 " +
			"HBase/strong/rf6/sync-replication Cassandra/ONE/rf6/read-repair-off]"},
		{"rf2,4", rf24, "[HBase/strong/rf2 HBase/strong/rf4 Cassandra/ONE/rf2 Cassandra/ONE/rf4 " +
			"HBase/strong/rf2/sync-replication HBase/strong/rf4/sync-replication " +
			"Cassandra/ONE/rf2/read-repair-off Cassandra/ONE/rf4/read-repair-off]"},
	} {
		cells, paper := fig1Cells(tc.o), dbRFCells(tc.o)
		if got := fmt.Sprint(cells); got != tc.want {
			t.Errorf("%s: fig1 cells enumerate as\n%s\nwant\n%s", tc.name, got, tc.want)
		}
		if got, want := fmt.Sprint(cells[:len(paper)]), fmt.Sprint(paper); got != want {
			t.Errorf("%s: fig1's paper cells are %s, want Fig. 2's %s", tc.name, got, want)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			if l := c.String(); seen[l] {
				t.Errorf("%s: cell %s enumerated twice", tc.name, l)
			} else {
				seen[l] = true
			}
		}
	}
}

// TestCellsCanonicalOrder pins the cell enumeration sweep reassembles rows
// in — the order every CSV and bit-identity gate depends on — for the grids
// TestSpectrumCellsCanonicalOrder does not cover, at the smoke profile.
func TestCellsCanonicalOrder(t *testing.T) {
	o := SmokeOptions()
	labels := func(cells any) string {
		return strings.Trim(strings.ReplaceAll(fmt.Sprint(cells), " ", "\n"), "[]")
	}
	for _, tc := range []struct {
		name  string
		cells any
		want  string
	}{
		{"tracebreak", traceCells(o), `
HBase/strong/rf1
HBase/strong/rf3
Cassandra/ONE/rf1
Cassandra/ONE/rf3
Cassandra/QUORUM/rf3
Cassandra/writeALL/rf3`},
		{"geo", geoCells(o), `
2dc/20ms/ONE/2+2/grid
2dc/20ms/LOCAL_QUORUM/2+2/grid
2dc/20ms/EACH_QUORUM/2+2/grid
2dc/80ms/ONE/2+2/grid
2dc/80ms/LOCAL_QUORUM/2+2/grid
2dc/80ms/EACH_QUORUM/2+2/grid
2dc/200ms/ONE/2+2/grid
2dc/200ms/LOCAL_QUORUM/2+2/grid
2dc/200ms/EACH_QUORUM/2+2/grid
3dc/20ms/ONE/2+2+2/grid
3dc/20ms/LOCAL_QUORUM/2+2+2/grid
3dc/20ms/EACH_QUORUM/2+2+2/grid
3dc/80ms/ONE/2+2+2/grid
3dc/80ms/LOCAL_QUORUM/2+2+2/grid
3dc/80ms/EACH_QUORUM/2+2+2/grid
3dc/200ms/ONE/2+2+2/grid
3dc/200ms/LOCAL_QUORUM/2+2+2/grid
3dc/200ms/EACH_QUORUM/2+2+2/grid
2dc/80ms/LOCAL_QUORUM/1+1/grid
2dc/80ms/LOCAL_QUORUM/3+1/grid
2dc/80ms/LOCAL_QUORUM/3+3/grid
2dc/80ms/EACH_QUORUM/2+2/fault
2dc/80ms/LOCAL_QUORUM/2+2/fault
2dc/80ms/adaptive/2+2/sla-adaptive`},
	} {
		if got := labels(tc.cells); got != strings.TrimSpace(tc.want) {
			t.Errorf("%s cells enumerate as\n%s\nwant\n%s", tc.name, got, strings.TrimSpace(tc.want))
		}
	}
}
