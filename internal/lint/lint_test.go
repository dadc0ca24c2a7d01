package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"cloudbench/internal/lint"
	"cloudbench/internal/lint/linttest"
)

func golden(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestBlockfreeGolden(t *testing.T) { linttest.Run(t, lint.Blockfree, golden("blockfree")) }
func TestDetwalkGolden(t *testing.T)   { linttest.Run(t, lint.Detwalk, golden("detwalk")) }
func TestHookguardGolden(t *testing.T) { linttest.Run(t, lint.Hookguard, golden("hookguard")) }
func TestHotpathGolden(t *testing.T)   { linttest.Run(t, lint.Hotpath, golden("hotpath")) }
func TestSeedflowGolden(t *testing.T)  { linttest.Run(t, lint.Seedflow, golden("seedflow")) }
func TestShardsafeGolden(t *testing.T) { linttest.Run(t, lint.Shardsafe, golden("shardsafe")) }

// TestMalformedDirective checks that an ignore directive without a reason
// is itself reported rather than silently swallowing diagnostics.
func TestMalformedDirective(t *testing.T) {
	prog, err := lint.Load(golden("malformed"), ".")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	diags, err := lint.Analyze(prog, lint.All(), lint.AnalyzeOptions{IgnoreScope: true})
	if err != nil {
		t.Fatalf("analyzing: %v", err)
	}
	var sawMalformed, sawSuppressedAnyway bool
	for _, d := range diags {
		if d.Analyzer == "simlint" {
			sawMalformed = true
		}
		if d.Analyzer == "detwalk" {
			sawSuppressedAnyway = true
		}
	}
	if !sawMalformed {
		t.Errorf("reason-less //simlint:ignore not reported as malformed; got %v", diags)
	}
	if !sawSuppressedAnyway {
		t.Errorf("malformed ignore suppressed the diagnostic it was attached to; got %v", diags)
	}
}

// TestSimReachableScopeIsDerived: detwalk, blockfree and shardsafe cover
// every directory under internal/ except the linter's own, without anyone
// having to list it — the hand-kept list this replaced never gained
// objstore, ring or geo.
func TestSimReachableScopeIsDerived(t *testing.T) {
	dirs, err := os.ReadDir("..")
	if err != nil || len(dirs) < 10 {
		t.Fatalf("reading internal/: %v (%d entries)", err, len(dirs))
	}
	for _, a := range []*lint.Analyzer{lint.Detwalk, lint.Blockfree, lint.Shardsafe} {
		for _, d := range dirs {
			name := d.Name()
			if got, want := a.AppliesTo("cloudbench/internal/"+name), name != "lint"; got != want {
				t.Errorf("%s applies to internal/%s = %t, want %t", a.Name, name, got, want)
			}
		}
		for _, out := range []string{"cloudbench/internal/lint/linttest", "cloudbench/bench", "cloudbench/cmd/replbench"} {
			if a.AppliesTo(out) {
				t.Errorf("%s applies to %s", a.Name, out)
			}
		}
	}
}
