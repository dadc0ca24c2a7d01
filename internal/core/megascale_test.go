package core

import (
	"reflect"
	"testing"
)

// TestMegaScaleRuns checks the partitioned deployment end to end at
// several shard counts: every segment completes its session churn, the
// cumulative process count matches the configured sessions, and the
// cross-segment traffic flows with no errors.
func TestMegaScaleRuns(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		o := MegaSmokeOptions()
		o.Shards = shards
		res, err := RunMegaScale(o)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(res.Segments) != shards {
			t.Fatalf("shards=%d: %d segments", shards, len(res.Segments))
		}
		if res.Errors != 0 {
			t.Errorf("shards=%d: %d errors", shards, res.Errors)
		}
		if want := o.Sessions / int64(shards) * int64(shards); res.Sessions != want {
			t.Errorf("shards=%d: %d sessions, want %d", shards, res.Sessions, want)
		}
		for i, seg := range res.Segments {
			if seg.Ops == 0 {
				t.Errorf("shards=%d segment %d measured no ops", shards, i)
			}
		}
		if shards > 1 && res.RemoteReads == 0 {
			t.Errorf("shards=%d: no cross-segment reads flowed", shards)
		}
		if shards == 1 && res.RemoteReads != 0 {
			t.Errorf("shards=1: %d remote reads from a lone segment", res.RemoteReads)
		}
		if shards > 1 && res.Windows == 0 {
			t.Errorf("shards=%d: no conservative windows executed", shards)
		}
	}
}

// TestMegaScaleIndivisible pins the divisibility contract.
func TestMegaScaleIndivisible(t *testing.T) {
	o := MegaSmokeOptions()
	o.Shards = 3 // 16 nodes don't split into 3 segments
	if _, err := RunMegaScale(o); err == nil {
		t.Fatal("expected an error for an indivisible node count")
	}
}

// TestMegaScaleDeterministic pins determinism across worker counts and
// window modes: identical options must give bit-identical results whether
// windows run on 1 or 8 pinned workers — the megascale version of the
// sharded bit-identity contract (adaptive widening is on by default, so
// this covers it too).
func TestMegaScaleDeterministic(t *testing.T) {
	o := MegaSmokeOptions()
	o.Shards = 4
	o.Workers = 1
	a, err := RunMegaScale(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	b, err := RunMegaScale(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("megascale differs across worker counts:\n  a: %+v\n  b: %+v", a, b)
	}
}
