// Command replbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	replbench -experiment <name>|all \
//	          [-profile smoke|quick|paper] [-short] [-seed N] [-rf 1,2,3] [-parallel N] [-shards N] [-csv] [-o results.txt] [-trace-out trace.json]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The experiment names (table1, fig1, ..., spectrum) come from a single
// registry; run with an unknown name to get the current list. Sweeps fan
// their independent cells out across host CPUs (-parallel bounds the
// worker pool; 0 means one worker per CPU). -shards sizes megascale, the
// one experiment whose model spans member kernels (DESIGN §10). Every
// cell is a deterministic simulation whose event order is independent of
// -parallel and of how many host goroutines run megascale's windows, so
// the report is bit-identical whatever their values.
// -seed and -csv apply uniformly to every experiment, including the geo and
// failover extensions. -cpuprofile and -memprofile write pprof profiles of
// the host process (`go tool pprof`); they leave the report unchanged.
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
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cloudbench/internal/core"
)

// experimentNames renders the registry (plus "all") for the usage string
// and the unknown-name error.
func experimentNames(experiments func(core.CLI) []core.Experiment) string {
	var names []string
	for _, e := range experiments(core.CLI{}) {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "all"), "|")
}

func main() {
	if err := run(os.Args[1:], os.Stdout, core.Experiments); err != nil {
		fmt.Fprintln(os.Stderr, "replbench:", err)
		os.Exit(1)
	}
}

// run parses args and runs what experiments returns (main passes the
// registry); a report that could not be fully written is an error.
func run(args []string, stdout io.Writer, experiments func(core.CLI) []core.Experiment) (err error) {
	fs := flag.NewFlagSet("replbench", flag.ContinueOnError)
	experimentFlag := fs.String("experiment", "all", experimentNames(experiments))
	profile := fs.String("profile", "quick", "smoke, quick, or paper scale")
	short := fs.Bool("short", false, "shorthand for -profile smoke")
	traceOut := fs.String("trace-out", "", "write Chrome trace-event JSON for one span-retaining tracebreak cell to this file")
	seed := fs.Int64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", 0, "sweep cells run concurrently (0 = one per CPU); results are bit-identical for every value")
	shards := fs.Int("shards", 0, "member kernels megascale partitions its deployment across (at least 2)")
	rfList := fs.String("rf", "", "comma-separated replication factors, ascending (default 1-6)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	out := fs.String("o", "", "also write the report to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *short {
		*profile = "smoke"
	}
	registry := experiments(core.CLI{
		Profile:  *profile,
		Shards:   *shards,
		TraceOut: *traceOut,
	})
	known := *experimentFlag == "all"
	for _, e := range registry {
		known = known || e.Name == *experimentFlag
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *experimentFlag, experimentNames(experiments))
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
	if *rfList != "" {
		var rfs []int
		for _, part := range strings.Split(*rfList, ",") {
			// Findings walk the rows in RF order, so the list ascends; a
			// factor above the testbed would run, clamped, under its label.
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 || n > core.ServerNodes || (len(rfs) > 0 && n <= rfs[len(rfs)-1]) {
				return fmt.Errorf("bad -rf entry %q", part)
			}
			rfs = append(rfs, n)
		}
		o.ReplicationFactors = rfs
	}

	w := &stickyWriter{w: stdout}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w.w = io.MultiWriter(stdout, f)
	}

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}

	started := time.Now()
	var findings []core.Finding
	for _, e := range registry {
		if *experimentFlag != e.Name && *experimentFlag != "all" {
			continue
		}
		//simlint:ignore hookguard every registry entry carries its run func
		rep, err := e.Run(o)
		if err != nil {
			return err
		}
		for _, t := range rep.Tables() {
			t.Write(w, *csv)
		}
		findings = append(findings, rep.Findings()...)
	}
	if len(findings) > 0 {
		fmt.Fprintln(w, "Findings versus the paper's qualitative claims:")
		for _, f := range findings {
			fmt.Fprintln(w, " ", f)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "done in %v (wall clock)\n", time.Since(started).Round(time.Second))
	if *memProfile != "" && w.err == nil {
		return writeAllocProfile(*memProfile)
	}
	return w.err
}

// stickyWriter passes writes through until the first one fails and keeps
// that error, so a report that could not be written fails the run however
// its printers treat write errors.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.w.Write(p)
	s.err = err
	return n, err
}

// startCPUProfile starts a CPU profile into path; stop ends it and closes
// the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error { pprof.StopCPUProfile(); return f.Close() }, nil
}

// writeAllocProfile writes the allocations made since the process started,
// sampled at the runtime's default rate, to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile's in-use figures are as of the last collection
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
