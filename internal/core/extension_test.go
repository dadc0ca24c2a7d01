package core

import (
	"strings"
	"testing"
	"time"
)

// geoTestOptions trims the smoke profile further so the full geo grid —
// 18 RTT × level cells, the RF sweep, the fault cells, and the SLA cell —
// stays cheap enough for the unit suite.
func geoTestOptions() Options {
	o := SmokeOptions()
	o.StressRecords = 400
	o.StressOps = 1_600
	o.Threads = 32
	return o
}

func TestRunGeoReproducesFindings(t *testing.T) {
	t.Parallel()
	o := geoTestOptions()
	res, err := RunGeo(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(geoCells(o)); len(res) != want {
		t.Fatalf("cells = %d, want %d", len(res), want)
	}
	findings := res.Findings()
	checkFindingsBlock(t, "geo", "Smoke profile, trimmed (`geoTestOptions`)", o, findings)
	allPass(t, findings)
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
	t.Parallel()
	o := Options{Seed: 1}
	res, err := RunFailover(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("systems = %d", len(res))
	}
	findings := res.Findings()
	checkFindingsBlock(t, "failover", "Six-server rack (the `failover.go` constants)", o, findings)
	allPass(t, findings)
	if ts := res.Tables(); len(ts) != 2 || len(ts[0].Headers) != 5 || len(ts[1].Headers) != 5 {
		t.Error("timeline tables malformed: want two, one column per system")
	}
}
