package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json fixes it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// benchSpec is BENCHMARK.json: the single source of the workload list and
// of every metric's name, unit, direction and regression bound (but for
// simopsPerS below). The command computes values by name and takes the
// rest from here, so the file and the program cannot drift apart
// unnoticed.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// simopsPerS is the host-time throughput: simulated operations per host
// second of run. The untraced run measures, prints and stores it and
// -compare gates it like the end-to-end metrics, but BENCHMARK.json does
// not list it among them: the benchmark driver refuses a benchmark whose
// end-to-end metric spreads by more than its bound (0.25 at most) over ten
// runs, and on a shared host this one does (see README.md, "Host time").
// The driver sees it as the per-layer metric bench.simops_per_s.
var simopsPerS = metricSpec{Name: "simops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}

// compared is what an untraced run reports and -compare compares.
func (s *benchSpec) compared() []metricSpec {
	return append([]metricSpec{simopsPerS}, s.EndToEnd...)
}

// loadSpec reads BENCHMARK.json from the working directory: the
// repository root, where `go run ./bench` runs.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// env stamps a result file with what its host-time numbers depend on.
// -compare refuses files whose Seed or Sizes differ (different inputs)
// and prints the rest so a reader can see a host change.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"` // reps are started until spent; each workload's record has the count
	Sizes      sizes   `json:"sizes"`
}

func currentEnv(cfg runConfig) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Sizes:      cfg.sizes,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimLeft(name, " \t:"))
		}
	}
	return "unknown"
}

// gitSHA is the checked-out commit, or "unknown" outside a git checkout
// (the benchmark driver runs from an export, and git must not go looking
// for a repository above it).
func gitSHA() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what a run leaves in bench/out and what -compare reads.
type resultFile struct {
	Env       env                       `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func (f resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
