package core

import "cloudbench/internal/stats"

// The experiment registry: the one list `replbench` dispatches on, renders
// its usage string from, and walks for `-experiment all`.

// Experiment is one registry entry: a name and the run that turns Options
// into its report.
type Experiment struct {
	Name string
	Run  func(Options) (Report, error)
}

// Report is what every experiment hands back: the tables it prints, in
// print order, and its verdicts on the paper's claims. Every entry returns
// at least one verdict except table1, which VerifyTable1 checks as it
// runs, and megascale, a scale demonstration. The typed results
// (Fig1Results, GeoResults, ...) are the Reports.
type Report interface {
	Tables() []*stats.Table
	Findings() []Finding
}

// CLI carries the four replbench inputs that are not experiment knobs, each
// read by the one experiment named on it.
type CLI struct {
	Profile  string // resolved -profile; megascale sizes its deployment by it
	Shards   int    // -shards; megascale's member kernels, clamped to at least 2
	RFSet    bool   // -rf given; tracebreak sweeps RF 1-6 at every profile otherwise
	TraceOut string // -trace-out; tracebreak exports one span-retaining cell here
}

// Experiments returns the registry in canonical (`all`) order.
func Experiments(cli CLI) []Experiment {
	return []Experiment{
		{"table1", func(Options) (Report, error) { return printed{tables: []*stats.Table{Table1()}}, VerifyTable1() }},
		{"fig1", report(RunFig1)},
		{"fig2", report(RunFig2)},
		{"fig3", report(RunFig3)},
		{"spectrum", report(RunSpectrum)},
		{"tracebreak", func(o Options) (Report, error) { return runTraceExperiment(o, cli) }},
		{"ablation-a1", report(AblationReadRepair)},
		{"ablation-a2", report(AblationHBaseSyncRepl)},
		{"ablation-a3", report(AblationClientThreads)},
		{"geo", report(RunGeo)},
		{"failover", report(RunFailover)},
		{"megascale", func(o Options) (Report, error) { return runMegaExperiment(o, cli) }},
	}
}

// report adapts a typed run to a registry entry.
func report[R Report](run func(Options) (R, error)) func(Options) (Report, error) {
	return func(o Options) (Report, error) { return run(o) }
}

// printed is a Report assembled by hand, for the entries whose result is
// not itself one.
type printed struct {
	tables   []*stats.Table
	findings []Finding
}

func (p printed) Tables() []*stats.Table { return p.tables }
func (p printed) Findings() []Finding    { return p.findings }

// figureTables renders each figure as its series table.
func figureTables(figs []*stats.Figure) []*stats.Table {
	ts := make([]*stats.Table, len(figs))
	for i, f := range figs {
		ts[i] = f.Table()
	}
	return ts
}
