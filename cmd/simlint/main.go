// Command simlint statically enforces the simulator's determinism,
// hot-path, isolation, and hook invariants over this repository:
//
//	go run ./cmd/simlint ./...
//
// It exits non-zero if any analyzer reports a non-suppressed diagnostic.
// Genuine exceptions are annotated in place:
//
//	//simlint:ignore <analyzer> <reason>
//
// and audited: a directive whose analyzer no longer fires on its line is
// itself a finding (ignoreaudit), and `-ignores` prints the full directive
// inventory for CI logs. Run with -list to see the analyzers and what each
// enforces; -analyzers selects a comma-separated subset; -json emits
// machine-readable findings; -budget fails the run if analysis exceeds a
// wall-clock allowance (the CI job holds the whole suite, call and flow
// tables included, under 60s). The suite is built on an API mirroring golang.org/x/tools/go/analysis
// (see internal/lint); when that dependency is available the analyzers can
// be rehosted verbatim and driven by `go vet -vettool`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cloudbench/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	names := fs.String("analyzers", "", "comma-separated analyzer subset to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings (and -ignores inventory) as JSON")
	ignores := fs.Bool("ignores", false, "print the //simlint:ignore inventory with staleness")
	budget := fs.Duration("budget", 0, "fail if analysis wall-clock exceeds this duration (0: no limit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := lint.All()
	if *names != "" {
		var err error
		analyzers, err = lint.Select(strings.Split(*names, ","))
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	start := time.Now()
	prog, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	loaded := time.Now()
	diags, report, err := lint.AnalyzeReport(prog, analyzers, lint.AnalyzeOptions{})
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	elapsed := time.Since(start)

	if *asJSON {
		out := jsonReport{Diagnostics: diags, ElapsedMS: elapsed.Milliseconds()}
		if *ignores {
			out.Ignores = report.Entries
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if *ignores {
			printIgnores(stdout, report)
		}
	}

	// Timing always goes to stderr so CI job logs record the budget headroom
	// without disturbing parseable stdout.
	fmt.Fprintf(stderr, "simlint: %d analyzer(s), load %v, analyze %v, total %v\n",
		len(analyzers), loaded.Sub(start).Round(time.Millisecond),
		elapsed.Round(time.Millisecond)-loaded.Sub(start).Round(time.Millisecond),
		elapsed.Round(time.Millisecond))
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(stderr, "simlint: analysis took %v, over the %v budget\n", elapsed.Round(time.Millisecond), *budget)
		return 1
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonReport is the -json output shape: stable field names, findings in
// reporting order, ignore inventory only when -ignores is set.
type jsonReport struct {
	Diagnostics []lint.Diagnostic  `json:"diagnostics"`
	Ignores     []lint.IgnoreEntry `json:"ignores,omitempty"`
	ElapsedMS   int64              `json:"elapsed_ms"`
}

func printIgnores(w io.Writer, report *lint.IgnoreReport) {
	if len(report.Entries) == 0 {
		fmt.Fprintln(w, "no //simlint:ignore directives")
		return
	}
	for _, e := range report.Entries {
		status := "unchecked (analyzer not in this run)"
		switch {
		case e.Checked && e.Stale:
			status = "STALE"
		case e.Checked:
			status = "live"
		}
		fmt.Fprintf(w, "%s: ignore %s [%s]: %s\n", e.Pos, e.Analyzer, status, e.Reason)
	}
}
