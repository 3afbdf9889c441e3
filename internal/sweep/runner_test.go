package sweep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipit/internal/metrics"
	"skipit/internal/sim"
)

// progressLog collects progress events from worker goroutines.
type progressLog struct {
	mu  sync.Mutex
	evs []ProgressEvent
}

func (l *progressLog) add(ev ProgressEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// states returns the states seen for the job at index, in emission order.
func (l *progressLog) states(index int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, ev := range l.evs {
		if ev.Index == index {
			out = append(out, ev.State)
		}
	}
	return out
}

// A simulator watchdog trip inside a job must surface as a failed job in
// the runner's progress stream, keep its *sim.HangError type (and the very
// report the simulator built) through the runner's error wrapping, and
// leave nothing in the store.
func TestHangReportPropagatesThroughRunnerProgress(t *testing.T) {
	report := &sim.HangReport{Cycle: 12345, Reason: "no-progress", Window: 500, MemOutstanding: 3}
	job := Job{
		Group: "g", Name: "wedge", Fingerprint: "fpW",
		Run: func(Sink) (Outcome, error) { return Outcome{}, &sim.HangError{Report: report} },
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log progressLog
	results := Runner{Workers: 1, Store: st, Progress: log.add}.Run([]Job{job})
	if got := log.states(0); len(got) != 2 || got[0] != "running" || got[1] != "failed" {
		t.Fatalf("progress states %v, want [running failed]", got)
	}
	var hang *sim.HangError
	if !errors.As(results[0].Err, &hang) {
		t.Fatalf("hang lost its type through the runner: %v", results[0].Err)
	}
	if hang.Report != report {
		t.Fatalf("runner replaced the hang report: %+v", hang.Report)
	}
	if !strings.Contains(results[0].Err.Error(), "g/wedge") || !strings.Contains(results[0].Err.Error(), "no-progress at cycle 12345") {
		t.Fatalf("error %q lacks the job identity or the hang summary", results[0].Err)
	}
	if recs := st.Records("g"); len(recs) != 0 {
		t.Fatalf("failed job stored %+v", recs)
	}
}

// Every job reports each state transition exactly once, with its index, the
// sweep size and its identity.
func TestRunnerProgressReportsEveryTransition(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cached := constJob("g", "cached", 1)
	st.Put("g", Record{Group: "g", Name: "cached", Fingerprint: cached.Fingerprint, Cycles: 1, Reps: 1})
	jobs := []Job{
		cached,
		constJob("g", "fresh", 2),
		{Group: "h", Name: "broken", Run: func(Sink) (Outcome, error) { return Outcome{}, errors.New("no") }},
	}
	var log progressLog
	Runner{Workers: 2, Store: st, Progress: log.add}.Run(jobs)

	want := [][]string{{"cached"}, {"running", "done"}, {"running", "failed"}}
	for i, w := range want {
		if got := log.states(i); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("job %d states %v, want %v", i, got, w)
		}
	}
	for _, ev := range log.evs {
		if ev.Total != len(jobs) || ev.Group != jobs[ev.Index].Group || ev.Name != jobs[ev.Index].Name {
			t.Errorf("event %+v does not describe job %d of %d", ev, ev.Index, len(jobs))
		}
	}
}

// Workers is a hard bound: no more than that many jobs run at once.
func TestRunnerBoundsConcurrency(t *testing.T) {
	const workers = 2
	var inFlight, peak atomic.Int32
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{Group: "g", Name: fmt.Sprintf("p%d", i),
			Run: func(Sink) (Outcome, error) {
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				inFlight.Add(-1)
				return Outcome{Cycles: 1, Reps: 1}, nil
			}})
	}
	if err := FirstError(Runner{Workers: workers}.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d jobs ran at once with Workers=%d", p, workers)
	}
}

func TestRunnerEmptyJobList(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var log progressLog
	if res := (Runner{Store: st, Progress: log.add}).Run(nil); len(res) != 0 {
		t.Fatalf("empty sweep returned %+v", res)
	}
	if len(log.evs) != 0 {
		t.Fatalf("empty sweep emitted %+v", log.evs)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("empty sweep wrote %d store files", len(ents))
	}
}

// Without WithSnapshots a job gets a nil sink; with it, the job's
// snapshots come back in emission order under their labels.
func TestRunnerSnapshotSink(t *testing.T) {
	var sawNil atomic.Bool
	job := Job{Group: "g", Name: "p", Run: func(sink Sink) (Outcome, error) {
		if sink == nil {
			sawNil.Store(true)
			return Outcome{Cycles: 1, Reps: 1}, nil
		}
		sink("warm", metrics.Snapshot{Cycle: 1})
		sink("measure", metrics.Snapshot{Cycle: 2})
		return Outcome{Cycles: 1, Reps: 1}, nil
	}}
	if res := (Runner{Workers: 1}).Run([]Job{job}); !sawNil.Load() || res[0].Snaps != nil {
		t.Fatalf("snapshots off: sink nil=%v, snaps %+v", sawNil.Load(), res[0].Snaps)
	}
	res := Runner{Workers: 1, WithSnapshots: true}.Run([]Job{job})
	snaps := res[0].Snaps
	if len(snaps) != 2 || snaps[0].Label != "warm" || snaps[0].Snapshot.Cycle != 1 ||
		snaps[1].Label != "measure" || snaps[1].Snapshot.Cycle != 2 {
		t.Fatalf("snapshots on: %+v", snaps)
	}
}

// The store files a sweep leaves behind depend only on the jobs, not on
// how the sweep ran: the worker count, a resumed half-finished run or a
// forced re-measurement all write the bytes a serial run writes.
func TestRunnerStoreBytesIndependentOfHowTheSweepRan(t *testing.T) {
	var jobs []Job
	for i := 0; i < 10; i++ {
		group := "figA"
		if i%3 == 0 {
			group = "figB"
		}
		j := constJob(group, fmt.Sprintf("p%02d", i), float64(100+i))
		run := j.Run
		j.Run = func(sink Sink) (Outcome, error) {
			out, err := run(sink)
			out.Derived = map[string]float64{"mops": float64(i) / 4, "flushes": float64(3 * i)}
			return out, err
		}
		jobs = append(jobs, j)
	}
	sweepInto := func(t *testing.T, dir string, runs ...Runner) map[string][]byte {
		t.Helper()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			r.Store = st
			part := jobs
			if len(runs) > 1 && i == 0 {
				part = jobs[:len(jobs)/2]
			}
			if err := FirstError(r.Run(part)); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		files := map[string][]byte{}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	want := sweepInto(t, t.TempDir(), Runner{Workers: 1})
	if len(want) != 2 {
		t.Fatalf("reference sweep wrote %d files, want 2", len(want))
	}
	cases := []struct {
		name string
		runs []Runner
	}{
		{"parallel", []Runner{{Workers: 4}}},
		{"resumed", []Runner{{Workers: 2}, {Workers: 3}}},
		{"forced", []Runner{{Workers: 1}, {Workers: 4, Force: true}}},
		{"default-workers", []Runner{{}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := sweepInto(t, t.TempDir(), c.runs...)
			if len(got) != len(want) {
				t.Fatalf("wrote %d files, want %d", len(got), len(want))
			}
			for name, b := range want {
				if string(got[name]) != string(b) {
					t.Errorf("%s differs from the serial run:\n%s\nvs\n%s", name, got[name], b)
				}
			}
		})
	}
}

// A record flushed by one process is a hit for the next: the job is served
// from disk and never runs.
func TestRunnerServesStoreHitsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := constJob("g", "a", 5)
	if err := FirstError((Runner{Store: st}).Run([]Job{job})); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job.Run = func(Sink) (Outcome, error) { panic("a store hit must not run the job") }
	res := (Runner{Store: reopened}).Run([]Job{job})
	if res[0].Err != nil || !res[0].Cached || res[0].Record.Cycles != 5 || res[0].Record.Fingerprint != job.Fingerprint {
		t.Fatalf("reopened store did not serve the hit: %+v", res[0])
	}
}

// A forced re-measurement that fails leaves the stored record as it was.
func TestRunnerFailedRerunKeepsStoredRecord(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := constJob("g", "p", 7)
	(Runner{Store: st}).Run([]Job{job})
	job.Run = func(Sink) (Outcome, error) { return Outcome{}, errors.New("simulator wedged") }
	if res := (Runner{Store: st, Force: true}).Run([]Job{job}); res[0].Err == nil {
		t.Fatal("failing re-run reported success")
	}
	if recs := st.Records("g"); len(recs) != 1 || recs[0].Cycles != 7 {
		t.Fatalf("store after failed re-run: %+v", recs)
	}
}

// FirstError reports by submission order, not by which job failed first in
// time, so a sweep's error message does not depend on scheduling.
func TestFirstErrorIsEarliestInSubmissionOrder(t *testing.T) {
	laterFailed := make(chan struct{})
	jobs := []Job{
		constJob("g", "ok", 1),
		{Group: "g", Name: "first", Run: func(Sink) (Outcome, error) {
			select {
			case <-laterFailed:
			case <-time.After(10 * time.Second):
			}
			return Outcome{}, errors.New("first")
		}},
		{Group: "g", Name: "second", Run: func(Sink) (Outcome, error) {
			defer close(laterFailed)
			return Outcome{}, errors.New("second")
		}},
	}
	err := FirstError(Runner{Workers: 2}.Run(jobs))
	if err == nil || !strings.Contains(err.Error(), "g/first") {
		t.Fatalf("FirstError = %v, want the g/first failure", err)
	}
}

// Job errors are wrapped with the job's identity and stay matchable with
// errors.Is; panics become errors carrying the panic value.
func TestRunnerErrorWrapsJobIdentity(t *testing.T) {
	sentinel := errors.New("cycle limit")
	jobs := []Job{
		{Group: "fig09", Name: "flush/size64", Run: func(Sink) (Outcome, error) { return Outcome{}, sentinel }},
		{Group: "fig10", Name: "wedge", Run: func(Sink) (Outcome, error) { panic("l2: MSHR underflow") }},
	}
	res := Runner{Workers: 1}.Run(jobs)
	if !errors.Is(res[0].Err, sentinel) || !strings.Contains(res[0].Err.Error(), "fig09/flush/size64") {
		t.Fatalf("error = %v", res[0].Err)
	}
	if msg := fmt.Sprint(res[1].Err); !strings.Contains(msg, "fig10/wedge panicked") || !strings.Contains(msg, "l2: MSHR underflow") {
		t.Fatalf("panic error = %q", msg)
	}
}
