package core

import (
	"strings"
	"testing"
	"time"

	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

func TestSLASearchFindsSustainableThroughput(t *testing.T) {
	if testing.Short() {
		// 2-probe smoke: capacity probe plus two bisection cells.
		o := smokeOptions()
		res, err := RunSLASearch(o, "Cassandra", 3, ycsb.ReadMostly,
			SLA{Percentile: 95, Limit: 25 * time.Millisecond}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Probes) != 2 {
			t.Fatalf("smoke probes = %d", len(res.Probes))
		}
		return
	}
	o := reducedOptions()
	o.StressOps = 6000
	sla := SLA{Percentile: 95, Limit: 25 * time.Millisecond}
	res, err := RunSLASearch(o, "Cassandra", 3, ycsb.ReadMostly, sla, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probes) != 5 {
		t.Fatalf("probes = %d", len(res.Probes))
	}
	if res.MaxThroughput <= 0 {
		t.Fatal("no sustainable throughput found")
	}
	// The search must have bracketed: at least one pass and, unless the
	// system is absurdly overprovisioned, one fail.
	passes, fails := 0, 0
	for _, p := range res.Probes {
		if p.Pass {
			passes++
			if p.Target > res.MaxThroughput {
				t.Errorf("MaxThroughput %v below a passing probe %v", res.MaxThroughput, p.Target)
			}
		} else {
			fails++
		}
	}
	if passes == 0 {
		t.Error("no probe met the SLA")
	}
	out := res.Tables()[0].String()
	if !strings.Contains(out, "p95") || !strings.Contains(out, "read-mostly") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func histOf(durations ...time.Duration) *stats.Histogram {
	h := &stats.Histogram{}
	for _, d := range durations {
		h.Record(d)
	}
	return h
}

func TestSLAMetUsesIntendedLatency(t *testing.T) {
	res := ycsb.Result{}
	// Fabricate: hand-built result with intended latencies.
	res.Intended = histOf(5*time.Millisecond, 6*time.Millisecond, 50*time.Millisecond)
	sla := SLA{Percentile: 50, Limit: 10 * time.Millisecond}
	if !sla.Met(res) {
		t.Error("p50 of 6ms should meet a 10ms SLA")
	}
	tight := SLA{Percentile: 99, Limit: 10 * time.Millisecond}
	if tight.Met(res) {
		t.Error("p99 of ~50ms should violate a 10ms SLA")
	}
	if !strings.Contains(sla.String(), "p50") {
		t.Error("SLA string malformed")
	}
}
