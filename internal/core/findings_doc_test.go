package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's findings blocks from this run")

// experimentsDoc holds the findings blocks the experiment tests keep equal
// to what they compute.
const experimentsDoc = "../../EXPERIMENTS.md"

// experimentsDocMu makes checkFindingsBlock's read, compare and rewrite of
// experimentsDoc one step: the experiment tests run in parallel, and
// -update must rewrite every block exactly once.
var experimentsDocMu sync.Mutex

// checkFindingsBlock renders findings, one Finding.String line each under a
// header naming the options (opts), the seed and the test, and compares
// them with the block between <!-- findings:name --> and
// <!-- /findings:name --> in EXPERIMENTS.md; with -update it rewrites that
// block instead. The tests call it before they check a verdict, so a red
// verdict is recorded too.
func checkFindingsBlock(t *testing.T, name, opts string, o Options, findings []Finding) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%s, seed %d, from `%s`:\n\n```\n", opts, o.Seed, t.Name())
	for _, f := range findings {
		b.WriteString(f.String() + "\n")
	}
	b.WriteString("```\n")
	block := b.String()

	experimentsDocMu.Lock()
	defer experimentsDocMu.Unlock()
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	open, end := "<!-- findings:"+name+" -->\n", "<!-- /findings:"+name+" -->"
	i, j := strings.Index(doc, open), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("%s has no %q … %q block", experimentsDoc, open, end)
	}
	i += len(open)
	switch {
	case doc[i:j] == block:
	case *update:
		if err := os.WriteFile(experimentsDoc, []byte(doc[:i]+block+doc[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("%s's %s block is not what this run computes; rewrite it with -update\n--- committed\n%s--- computed\n%s",
			experimentsDoc, name, doc[i:j], block)
	}
}
