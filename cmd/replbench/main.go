// Command replbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	replbench -experiment <name>|findings|all \
//	          [-profile smoke|quick|paper] [-short] [-seed N] [-rf 1,2,3] [-parallel N] [-shards N] [-shard-workers N] [-csv] [-o results.txt] [-trace-out trace.json]
//
// The experiment names (table1, fig1, ..., spectrum) come from a single
// registry; run with an unknown name to get the current list. Sweeps fan
// their independent cells out across host CPUs (-parallel bounds the
// worker pool; 0 means one worker per CPU). -shards additionally runs
// each cell's kernel as a sharded group (see DESIGN §10); -shard-workers
// caps the goroutines megascale — the one experiment whose model spans
// shards — executes its windows on. Every cell is a deterministic
// simulation whose event order is independent of all three knobs, so the
// report is bit-identical whatever their values.
// -seed and -csv apply uniformly to every experiment, including the geo and
// failover extensions.
//
// Each experiment prints the corresponding table or figure series in the
// same rows the paper reports, plus a findings summary comparing the
// reproduction against the paper's qualitative claims.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"cloudbench/internal/core"
	"cloudbench/internal/stats"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// coreReadMostly adapts the read-mostly preset for the SLA search.
func coreReadMostly(records int64) ycsb.Spec { return ycsb.ReadMostly(records) }

// runContext carries the resolved options and output plumbing into each
// experiment's runner.
type runContext struct {
	o        core.Options
	w        io.Writer
	csv      bool
	findings *[]core.Finding
	rfFlag   string // raw -rf value: some experiments re-default when unset
	traceOut string
	seed     int64
	profile  string // resolved -profile name; megascale sizes its cell by it

	// shardWorkers is -shard-workers. Only megascale reads it: every other
	// experiment deploys on one shard and never opens a multi-shard window.
	shardWorkers int
}

// render prints a table in the format -csv selected, followed by a blank
// separator line.
func (ctx *runContext) render(t *stats.Table) {
	if ctx.csv {
		t.CSV(ctx.w)
	} else {
		t.Render(ctx.w)
	}
	fmt.Fprintln(ctx.w)
}

// experiment is one registry entry. The -experiment usage string, the
// dispatch, and the `all` order are all generated from this single list —
// adding an experiment here is the whole wiring.
type experiment struct {
	name string
	run  func(ctx *runContext) error
}

// experiments returns the registry in canonical (`all`) order.
func experiments() []experiment {
	return []experiment{
		{"table1", runTable1},
		{"fig1", runFig1},
		{"fig2", runFig2},
		{"fig3", runFig3},
		{"audit", runAudit},
		{"spectrum", runSpectrum},
		{"tracebreak", runTracebreak},
		{"ablation-a1", runAblationA1},
		{"ablation-a2", runAblationA2},
		{"ablation-a3", runAblationA3},
		{"geo", runGeo},
		{"failover", runFailover},
		{"sla", runSLA},
		{"megascale", runMegaScale},
	}
}

// experimentNames renders the registry (plus the two pseudo-experiments)
// for the usage string and the unknown-name error.
func experimentNames() string {
	var names []string
	for _, e := range experiments() {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "findings", "all"), "|")
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replbench", flag.ContinueOnError)
	experimentFlag := fs.String("experiment", "all", experimentNames())
	profile := fs.String("profile", "quick", "smoke, quick, or paper scale")
	short := fs.Bool("short", false, "shorthand for -profile smoke")
	traceOut := fs.String("trace-out", "", "write Chrome trace-event JSON for one span-retaining tracebreak cell to this file")
	seed := fs.Int64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", 0, "sweep cells run concurrently (0 = one per CPU); results are bit-identical for every value")
	shards := fs.Int("shards", 0, "kernel execution shards per simulation cell (0/1 = sequential kernel); results are bit-identical for every value")
	shardWorkers := fs.Int("shard-workers", 0, "pinned worker goroutines megascale runs its shard windows on (0 = one per CPU); results are bit-identical for every value")
	rfList := fs.String("rf", "", "comma-separated replication factors (default 1-6)")
	noReadRepair := fs.Bool("no-read-repair", false, "disable Cassandra read repair (ablation A1 inline)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	out := fs.String("o", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	registry := experiments()
	if *experimentFlag != "all" && *experimentFlag != "findings" {
		known := false
		for _, e := range registry {
			if e.name == *experimentFlag {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown experiment %q (valid: %s)", *experimentFlag, experimentNames())
		}
	}

	if *short {
		*profile = "smoke"
	}
	var o core.Options
	switch *profile {
	case "smoke":
		o = core.SmokeOptions()
	case "quick":
		o = core.QuickOptions()
	case "paper":
		o = core.PaperOptions()
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	o.Seed = *seed
	if *parallel < 0 {
		return fmt.Errorf("bad -parallel %d", *parallel)
	}
	o.Parallelism = *parallel
	if *shards < 0 {
		return fmt.Errorf("bad -shards %d", *shards)
	}
	if *shards > 0 {
		o.Shards = *shards
	}
	if *shardWorkers < 0 {
		return fmt.Errorf("bad -shard-workers %d", *shardWorkers)
	}
	if *rfList != "" {
		var rfs []int
		for _, part := range strings.Split(*rfList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -rf entry %q", part)
			}
			rfs = append(rfs, n)
		}
		o.ReplicationFactors = rfs
	}
	if *noReadRepair {
		o.ReadRepairChance = 0
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	started := time.Now()
	var findings []core.Finding
	ctx := &runContext{
		o:        o,
		w:        w,
		csv:      *csv,
		findings: &findings,
		rfFlag:   *rfList,
		traceOut: *traceOut,
		seed:     *seed,
		profile:  *profile,

		shardWorkers: *shardWorkers,
	}

	for _, e := range registry {
		if *experimentFlag != e.name && *experimentFlag != "all" {
			continue
		}
		//simlint:ignore hookguard every registry entry carries its run func
		if err := e.run(ctx); err != nil {
			return err
		}
	}
	if len(findings) > 0 || *experimentFlag == "findings" {
		fmt.Fprintln(w, "Findings versus the paper's qualitative claims:")
		for _, f := range findings {
			fmt.Fprintln(w, " ", f)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "done in %v (wall clock)\n", time.Since(started).Round(time.Second))
	return nil
}

func runTable1(ctx *runContext) error {
	if err := core.VerifyTable1(); err != nil {
		return err
	}
	ctx.render(core.Table1())
	return nil
}

func runFig1(ctx *runContext) error {
	res, err := core.RunFig1(ctx.o)
	if err != nil {
		return err
	}
	for _, f := range res.Figures() {
		ctx.render(f.Table())
	}
	ctx.render(res.Table())
	*ctx.findings = append(*ctx.findings, core.CheckFig1(res)...)
	return nil
}

func runFig2(ctx *runContext) error {
	res, err := core.RunFig2(ctx.o)
	if err != nil {
		return err
	}
	for _, f := range res.ThroughputFigures() {
		ctx.render(f.Table())
	}
	for _, f := range res.LatencyFigures() {
		ctx.render(f.Table())
	}
	*ctx.findings = append(*ctx.findings, core.CheckFig2(res)...)
	return nil
}

func runFig3(ctx *runContext) error {
	res, err := core.RunFig3(ctx.o)
	if err != nil {
		return err
	}
	for _, f := range res.Figures() {
		ctx.render(f.Table())
	}
	*ctx.findings = append(*ctx.findings, core.CheckFig3(res)...)
	return nil
}

func runAudit(ctx *runContext) error {
	res, err := core.RunConsistencyAudit(ctx.o)
	if err != nil {
		return err
	}
	ctx.render(res.Table())
	*ctx.findings = append(*ctx.findings, core.CheckAudit(res)...)
	return nil
}

func runSpectrum(ctx *runContext) error {
	res, err := core.RunSpectrum(ctx.o)
	if err != nil {
		return err
	}
	ctx.render(res.Table())
	*ctx.findings = append(*ctx.findings, core.CheckSpectrum(ctx.o, res)...)
	return nil
}

func runTracebreak(ctx *runContext) error {
	to := ctx.o
	if ctx.rfFlag == "" {
		// The per-phase decomposition is about how shares move with
		// the replication factor (F4's read-repair growth needs at
		// least RF 3..6); sweep the full range at every profile scale
		// unless -rf narrowed it explicitly.
		to.ReplicationFactors = []int{1, 2, 3, 4, 5, 6}
	}
	res, err := core.RunTraceBreakdown(to)
	if err != nil {
		return err
	}
	// The decomposition is a long narrow table meant for downstream
	// plotting; emit CSV regardless of -csv.
	res.Table().CSV(ctx.w)
	fmt.Fprintln(ctx.w)
	*ctx.findings = append(*ctx.findings, core.CheckTrace(res)...)
	if ctx.traceOut != "" {
		_, spans, err := core.RunTraceSpans(to, core.TraceSpanKeep)
		if err != nil {
			return err
		}
		f, err := os.Create(ctx.traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(ctx.w, "wrote %d spans to %s (chrome://tracing / Perfetto format)\n\n", len(spans), ctx.traceOut)
	}
	return nil
}

func runAblationA1(ctx *runContext) error {
	fig, err := core.AblationReadRepair(ctx.o)
	if err != nil {
		return err
	}
	ctx.render(fig.Table())
	return nil
}

func runAblationA2(ctx *runContext) error {
	fig, err := core.AblationHBaseSyncRepl(ctx.o)
	if err != nil {
		return err
	}
	ctx.render(fig.Table())
	return nil
}

func runAblationA3(ctx *runContext) error {
	fig, err := core.AblationClientThreads(ctx.o, nil, 3000)
	if err != nil {
		return err
	}
	ctx.render(fig.Table())
	return nil
}

func runGeo(ctx *runContext) error {
	res, err := core.RunGeo(ctx.o)
	if err != nil {
		return err
	}
	ctx.render(res.Table())
	*ctx.findings = append(*ctx.findings, core.CheckGeo(ctx.o, res)...)
	return nil
}

func runFailover(ctx *runContext) error {
	fo := core.DefaultFailoverOptions()
	fo.Seed = ctx.seed
	res, err := core.RunFailover(fo)
	if err != nil {
		return err
	}
	ctx.render(res.ThroughputFigure().Table())
	ctx.render(res.Figure().Table())
	return nil
}

// runMegaScale drives the partitioned deployment (DESIGN §10). The cell
// scales with -profile: smoke is the small CI cell, quick a mid-size cell
// that keeps `-experiment all` tolerable, paper the full 512-node
// million-session deployment. -shards and -shard-workers carry over, with
// the shard count clamped to at least 2 so the partitioned engine
// actually runs (a megascale deployment on one member kernel is just a
// very slow sequential simulation).
func runMegaScale(ctx *runContext) error {
	var mo core.MegaScaleOptions
	switch ctx.profile {
	case "smoke":
		mo = core.MegaSmokeOptions()
	case "paper":
		mo = core.DefaultMegaScaleOptions()
	default: // quick
		mo = core.DefaultMegaScaleOptions()
		mo.Nodes = 64
		mo.Sessions = 20_000
		mo.LiveSessions = 256
	}
	mo.Seed = ctx.seed
	mo.Workers = ctx.shardWorkers
	mo.Shards = ctx.o.Shards
	if mo.Shards < 2 {
		mo.Shards = 2
	}
	res, err := core.RunMegaScale(mo)
	if err != nil {
		return err
	}
	ctx.render(res.Table())
	fmt.Fprintf(ctx.w, "megascale: %d shards, %d conservative windows\n\n", res.Shards, res.Windows)
	return nil
}

func runSLA(ctx *runContext) error {
	res, err := core.RunSLASearch(ctx.o, "Cassandra", 3, coreReadMostly, core.SLA{Percentile: 95, Limit: 20 * time.Millisecond}, 6)
	if err != nil {
		return err
	}
	ctx.render(res.Table())
	return nil
}
