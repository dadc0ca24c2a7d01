package core

import (
	"strings"
	"testing"
	"time"
)

// geoTestOptions trims the smoke profile further so the full geo grid —
// 18 RTT × level cells, the RF sweep, the fault cells, and the SLA pair —
// stays cheap enough for the unit suite.
func geoTestOptions() Options {
	o := SmokeOptions()
	o.StressRecords = 400
	o.StressOps = 1_600
	o.Threads = 32
	return o
}

func TestRunGeoReproducesFindings(t *testing.T) {
	o := geoTestOptions()
	res, err := RunGeo(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(geoCells(o)); len(res) != want {
		t.Fatalf("cells = %d, want %d", len(res), want)
	}
	for _, f := range res.Findings(o) {
		if !f.Pass {
			t.Errorf("finding failed: %s", f)
		}
	}
	// The WAN floor separates the write levels at the anchor point: an
	// EACH_QUORUM write waits out the 80ms round trip, LOCAL_QUORUM and
	// ONE complete inside the DC.
	anchor := rfLabel(geoUniformRF(2, 2))
	eq := res.find(geoModeGrid, 2, geoAnchorRTT, "EACH_QUORUM", anchor)
	for _, lv := range []string{"ONE", "LOCAL_QUORUM"} {
		m := res.find(geoModeGrid, 2, geoAnchorRTT, lv, anchor)
		if m == nil || eq == nil {
			t.Fatalf("missing anchor cell %s", lv)
		}
		if m.WriteMean > 40*time.Millisecond {
			t.Errorf("%s write mean %v pays the WAN", lv, m.WriteMean)
		}
		if m.Errors > 0 {
			t.Errorf("%s: %d errors on a healthy cluster", lv, m.Errors)
		}
		if eq.WriteMean < 2*m.WriteMean {
			t.Errorf("EACH_QUORUM write mean %v not clearly above %s's %v", eq.WriteMean, lv, m.WriteMean)
		}
	}
	// The RF-per-DC sweep keeps the NetworkTopologyStrategy label in the
	// rendered table.
	if s := res.Tables()[0].String(); !strings.Contains(s, "3+1") || !strings.Contains(s, "sla-adaptive") {
		t.Error("table missing RF-per-DC or SLA rows")
	}
}

func TestRunFailoverAvailabilityShapes(t *testing.T) {
	res, err := RunFailover(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("systems = %d", len(res))
	}
	sums := map[string]struct{ ok, errs int64 }{}
	for _, tl := range res {
		var ok, errs int64
		for i := range tl.OK {
			ok += tl.OK[i]
			errs += tl.Errors[i]
		}
		sums[tl.System] = struct{ ok, errs int64 }{ok, errs}
	}
	// ONE and QUORUM ride through the failure: at most the handful of
	// in-flight requests at the instant the node dies can error.
	for _, sys := range []string{"Cassandra-ONE", "Cassandra-QUORUM"} {
		if s := sums[sys]; s.errs > failoverThreads {
			t.Errorf("%s: %d errors, want availability through failure", sys, s.errs)
		}
	}
	// ALL and single-owner HBase error throughout the outage.
	for _, sys := range []string{"Cassandra-ALL", "HBase"} {
		if s := sums[sys]; s.errs < 50 {
			t.Errorf("%s: only %d errors despite a dead node", sys, s.errs)
		}
	}
	// Errors are confined to the failure window (± one bucket for ops in
	// flight when the node dies).
	for _, tl := range res {
		failStart := int(failoverFailAt/failoverBucket) - 1
		failEnd := int(failoverRecoverAt/failoverBucket) + 1
		for i, e := range tl.Errors {
			if e > 0 && (i < failStart || i > failEnd) {
				t.Errorf("%s: errors in bucket %d outside the failure window", tl.System, i)
			}
		}
	}
	// Hinted handoff replayed for the weak levels.
	for _, tl := range res {
		if strings.HasPrefix(tl.System, "Cassandra-ONE") && tl.Replays == 0 {
			t.Errorf("%s: no hint replays after recovery", tl.System)
		}
	}
	if ts := res.Tables(); len(ts) != 2 || len(ts[0].Headers) != 5 || len(ts[1].Headers) != 5 {
		t.Error("timeline tables malformed: want two, one column per system")
	}
}
