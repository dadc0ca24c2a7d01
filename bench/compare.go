package main

import (
	"fmt"
	"io"
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative is an improvement.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func spreadShare(v metricValue) float64 {
	if v.Median == 0 || len(v.Values) == 0 {
		return 0
	}
	lo, hi := minMax(v.Values)
	return (hi - lo) / v.Median
}

// compareFiles prints the per-workload delta table of the compared
// metrics of two result files and applies their bounds. A metric whose
// own rep-to-rep spread (min–max over median, either side) exceeds its
// bound is unresolved rather than unchanged. It reports false on a
// regression or when the two files simulated different things.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) (bool, error) {
	a, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	for _, f := range []struct {
		path string
		file resultFile
	}{{oldPath, a}, {newPath, b}} {
		if err := comparable(spec, f.file); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	if a.Env.Seed != b.Env.Seed || a.Env.Sizes != b.Env.Sizes {
		return false, fmt.Errorf("refusing to compare different inputs: seed %d sizes %+v vs seed %d sizes %+v",
			a.Env.Seed, a.Env.Sizes, b.Env.Seed, b.Env.Sizes)
	}
	for _, side := range []struct {
		path string
		e    env
	}{{oldPath, a.Env}, {newPath, b.Env}} {
		fmt.Fprintf(w, "%s: %s, nproc %d, GOMAXPROCS %d, %s, git %s\n",
			side.path, side.e.CPUModel, side.e.NumCPU, side.e.GOMAXPROCS, side.e.GoVersion, side.e.GitSHA)
	}

	ok := true
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		if ra.SimDigest != rb.SimDigest {
			ok = false
			fmt.Fprintf(w, "  sim_digest differs (%s vs %s): the simulation changed, host-time metrics do not compare\n",
				short(ra.SimDigest), short(rb.SimDigest))
		}
		fmt.Fprintf(w, "  %-18s %14s %14s %9s %7s %8s %8s  %s\n", "metric", "old", "new", "worse by", "bound", "spread-a", "spread-b", "verdict")
		for _, m := range spec.compared() {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			worse := worsening(m, va.Median, vb.Median)
			sa, sb := spreadShare(va), spreadShare(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "  %-18s %14.6g %14.6g %+8.2f%% %6.0f%% %7.2f%% %7.2f%%  %s\n",
				m.Name, va.Median, vb.Median, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
		if rb.Failed > ra.Failed {
			ok = false
			fmt.Fprintf(w, "  failed operations rose from %d to %d\n", ra.Failed, rb.Failed)
		}
	}
	return ok, nil
}

// comparable reports why a result file cannot be one side of -compare: it
// must hold an untraced record of every workload with every compared
// metric, or a missing number would read as 0 and pass as "ok".
func comparable(spec *benchSpec, f resultFile) error {
	for _, wl := range spec.Workloads {
		r, ok := f.Workloads[wl.Name]
		if !ok {
			return fmt.Errorf("no record of workload %s", wl.Name)
		}
		if r.Traced {
			return fmt.Errorf("workload %s is a traced run: end-to-end numbers never come from it", wl.Name)
		}
		for _, m := range spec.compared() {
			if v, ok := r.Metrics[m.Name]; !ok || len(v.Values) == 0 {
				return fmt.Errorf("workload %s has no %s", wl.Name, m.Name)
			}
		}
	}
	return nil
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
