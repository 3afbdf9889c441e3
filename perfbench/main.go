// Command perfbench is the repository's host-speed benchmark. It runs one
// named workload against the simulator's packages for a time budget, checks
// every output, and prints one JSON object on the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 1.2, "unit": "s"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) repeats the workload with spans and reports the per-layer
// metrics. See README.md for the workloads, the metrics and the trace.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"skipit/internal/bench"
	"skipit/internal/sweep"
)

// Workload sizes. They set how much work one rep does; the budget sets how
// many reps a run makes. persist-lookup runs bench.PersistOpsPerThr
// operations per thread, the figures' full-size setting.
const (
	socInstrsPerCore = 40_000
	figsWorkers      = 2
)

// Paths, relative to the repository root the benchmark runs from.
const (
	// workDir holds the per-rep result stores and the trace.
	workDir = ".bench_build/perfbench-work"
	// baselinePath is the committed quick-sweep baseline figs-quick checks
	// its records against.
	baselinePath = "BENCH_quick.json"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "time budget of the measured reps")
	traceFlag := fs.Int("trace", 0, "1 repeats the workload with spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if !slices.Contains(workloadNames(), *workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	traced := *traceFlag == 1
	setup, err := newWorkload(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := describeHost(*seed)
	res, err := runReps(setup, time.Duration(*seconds*float64(time.Second)), traced, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	defs, values := endToEnd, res.endToEndMetrics()
	if traced {
		defs, values = perLayer, res.perLayerMetrics()
		path := filepath.Join(workDir, "trace-"+*workload+".jsonl")
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := writeTrace(path, host, res.lastTrace); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans of the last traced rep in %s\n", path)
	}
	out := result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}

	w := bufio.NewWriter(stdout)
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d untraced_reps=%d traced_reps=%d outputs_sha256=%s\n",
		*workload, *seed, *traceFlag, len(res.untraced), len(res.traced), res.digest)
	fmt.Fprintf(w, "host %s\n", hostJSON)
	fmt.Fprintf(w, "rep wall_s:")
	for _, r := range res.untraced {
		fmt.Fprintf(w, " %.4g", r.ph.wall.Seconds())
	}
	for _, r := range res.traced {
		fmt.Fprintf(w, " traced:%.4g", r.ph.wall.Seconds())
	}
	fmt.Fprintf(w, "; %d set-ups, %.4g..%.4g s\n", len(res.setups), slices.Min(res.setups), slices.Max(res.setups))
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  %-30s %16.6g ratio (%d failed of %d attempted)\n", "fail_ratio",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !out.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d checked operations failed\n", res.failed, res.attempted)
		return 1
	}
	return 0
}

func workloadNames() []string { return []string{wlFigsQuick, wlPersistLookup, wlSocCBO} }

// newWorkload generates a workload's inputs from seed and returns its
// set-up function.
func newWorkload(name string, seed int64) (setupFunc, error) {
	switch name {
	case wlFigsQuick:
		base, err := sweep.LoadFile(baselinePath)
		if err != nil {
			return nil, fmt.Errorf("loading the baseline: %w", err)
		}
		w := &figsQuick{baseline: base.Records, workers: min(figsWorkers, runtime.NumCPU()), dir: workDir}
		return w.setup, nil
	case wlPersistLookup:
		return newPersistLookup(seed, bench.PersistOpsPerThr).setup, nil
	case wlSocCBO:
		w := &socCBO{seed: seed, instrsPerCore: socInstrsPerCore}
		return w.setup, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hostInfo describes the machine and build a result was measured on.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func describeHost(seed int64) hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		vcs := map[string]string{}
		for _, s := range bi.Settings {
			vcs[s.Key] = s.Value
		}
		if rev := vcs["vcs.revision"]; rev != "" {
			h.Commit = rev
			if vcs["vcs.modified"] == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}
