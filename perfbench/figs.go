package main

import (
	"os"
	"reflect"
	"strings"
	"time"

	"skipit/internal/bench"
	"skipit/internal/sweep"
)

// figsQuick is the figs-quick workload: the 270-point `skipit-bench -quick`
// job list run through the sweep runner into a fresh store directory, every
// record checked against the committed BENCH_quick.json at tolerance 0.
// Its inputs are pinned by that baseline, so the seed has no effect.
type figsQuick struct {
	baseline []sweep.Record
	workers  int
	dir      string // parent of the per-instance store directories
	// jobs filters the job list; nil runs all of it (tests run a subset).
	jobs func([]sweep.Job) []sweep.Job
}

func (w *figsQuick) setup(*tracer) (instance, error) {
	bench.SetQuick()
	jobs := bench.FigureJobs(true, nil)
	if w.jobs != nil {
		jobs = w.jobs(jobs)
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(w.dir, "store-")
	if err != nil {
		return nil, err
	}
	store, err := sweep.Open(dir)
	if err != nil {
		return nil, err
	}
	return &figsInstance{w: w, jobs: jobs, store: store}, nil
}

type figsInstance struct {
	w       *figsQuick
	jobs    []sweep.Job
	store   *sweep.Store
	results []sweep.JobResult
	wall    time.Duration
	flush   time.Duration
}

func (f *figsInstance) measure(tr *tracer) error {
	jobs := f.jobs
	if tr != nil {
		root := tr.begin("sweep.Runner.Run", -1)
		defer func() { tr.end(root, 0) }()
		jobs = make([]sweep.Job, len(f.jobs))
		for i, j := range f.jobs {
			run, name := j.Run, j.Group+"/"+j.Name
			j.Run = func(sink sweep.Sink) (sweep.Outcome, error) {
				id := tr.begin(name, root)
				defer tr.end(id, 0)
				return run(sink)
			}
			jobs[i] = j
		}
	}
	t0 := time.Now()
	f.results = sweep.Runner{Workers: f.w.workers, Store: f.store}.Run(jobs)
	f.wall = time.Since(t0)
	return nil
}

// check flushes the store and compares every point with the baseline. A
// failed job, a point missing from either side, a changed cycle count or
// fingerprint, or any other difference from the baseline record is one
// failure.
func (f *figsInstance) check() (attempted, failed int, err error) {
	t0 := time.Now()
	if err := f.store.Flush(); err != nil {
		return 0, 0, err
	}
	f.flush = time.Since(t0)
	attempted, failed = compareRecords(f.w.baseline, f.results)
	return attempted, failed, nil
}

// compareRecords is figs-quick's output check.
func compareRecords(baseline []sweep.Record, results []sweep.JobResult) (attempted, failed int) {
	records := sweep.Records(results)
	cmp := sweep.Compare(baseline, records, 0)
	base := map[string]sweep.Record{}
	for _, r := range baseline {
		base[r.Group+"/"+r.Name] = r
	}
	for _, d := range cmp.Deltas {
		if d.Status != sweep.StatusOK {
			failed++
		}
	}
	for _, r := range records {
		if b, ok := base[r.Group+"/"+r.Name]; ok && b.Fingerprint == r.Fingerprint &&
			b.Cycles == r.Cycles && !reflect.DeepEqual(normalize(b), normalize(r)) {
			failed++
		}
	}
	return len(cmp.Deltas), failed
}

// normalize makes an empty and a missing Derived map compare equal, as they
// do once written to JSON.
func normalize(r sweep.Record) sweep.Record {
	if len(r.Derived) == 0 {
		r.Derived = nil
	}
	return r
}

func (f *figsInstance) outputs() any { return sweep.Records(f.results) }

func (f *figsInstance) work() (ops, simCycles float64) {
	for _, r := range sweep.Records(f.results) {
		simCycles += r.Cycles
	}
	return float64(len(f.results)), simCycles
}

// cycleGroups are the figures measured on the cycle-level simulator.
var cycleGroups = map[string]bool{"fig09": true, "fig10": true, "fig11": true,
	"fig12": true, "fig13": true, "ablations": true}

func (f *figsInstance) layers(tr *tracer) map[string]float64 {
	var jobNs []int64
	var busy int64
	group := map[string]float64{}
	tr.each(func(s *span) {
		if s.Parent < 0 {
			return
		}
		jobNs = append(jobNs, s.dur())
		busy += s.dur()
		g, _, _ := strings.Cut(s.Name, "/")
		if cycleGroups[g] {
			g = "cycle_figs"
		}
		group[g] += float64(s.dur()) / 1e9
	})
	var flushes, elided float64
	for _, r := range sweep.Records(f.results) {
		flushes += r.Derived["flushes"]
		elided += r.Derived["elided"]
	}
	return map[string]float64{
		"sweep.job_ms_p50":        percentile(jobNs, 50) / 1e6,
		"sweep.job_ms_p95":        percentile(jobNs, 95) / 1e6,
		"sweep.busy_ratio":        ratio(float64(busy), float64(f.w.workers)*float64(f.wall)),
		"sweep.store_flush_ms":    float64(f.flush) / 1e6,
		"bench.fig14_s":           group["fig14"],
		"bench.fig15_s":           group["fig15"],
		"bench.fig16_s":           group["fig16"],
		"bench.cycle_figs_s":      group["cycle_figs"],
		"memsim.flushes":          flushes,
		"memsim.flush_drop_ratio": ratio(elided, flushes),
	}
}

func (f *figsInstance) close() error { return os.RemoveAll(f.store.Dir()) }
