package sweepd

import (
	"sync/atomic"
	"testing"
	"time"

	"skipit/internal/sweep"
)

// drainCounter counts the lease responses that report the queue drained.
type drainCounter struct {
	inner  Transport
	drains atomic.Int64
}

func (d *drainCounter) Call(path string, req, resp any) error {
	err := d.inner.Call(path, req, resp)
	if lr, ok := resp.(*LeaseResponse); ok && err == nil && lr.Drained {
		d.drains.Add(1)
	}
	return err
}

// A PerSweepJobs worker builds its job list once per sweep: jobs of one
// sweep share a list, and a sweep leased after the queue drained gets a
// fresh one, so list-owned state never carries over to it.
func TestPerSweepJobsRebuildsAfterDrain(t *testing.T) {
	c, _ := testCoord(t, nil)
	var builds atomic.Int64
	build := func() []sweep.Job {
		builds.Add(1)
		var jobs []sweep.Job
		for _, name := range []string{"a", "b", "c"} {
			jobs = append(jobs, sweep.Job{Group: "g", Name: name, Fingerprint: "fp" + name,
				Run: func(sweep.Sink) (sweep.Outcome, error) { return sweep.Outcome{Cycles: 1, Reps: 1}, nil }})
		}
		return jobs
	}
	link := &drainCounter{inner: &coordTransport{c: c}}
	w := NewWorker(WorkerConfig{
		Name: "w", Client: &Client{T: link}, Source: PerSweepJobs(build),
		PollEvery: 5 * time.Millisecond, Logf: t.Logf,
	})
	go w.Run() //nolint:errcheck
	defer w.Stop()

	submit := func(names ...string) {
		var specs []JobSpec
		for _, n := range names {
			specs = append(specs, spec("g", n, "fp"+n))
		}
		if _, err := c.Submit(SubmitRequest{Jobs: specs}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "sweep done", func() bool { return allDone(t, c, names) })
	}

	submit("a")
	if got := builds.Load(); got != 1 {
		t.Fatalf("first sweep built the job list %d times, want 1", got)
	}
	// Wait for the worker to see the queue drained; its next lease, which
	// may be the second sweep's, comes after it dropped the list.
	seen := link.drains.Load()
	waitFor(t, 10*time.Second, "a drained lease", func() bool { return link.drains.Load() > seen })
	submit("b", "c")
	if got := builds.Load(); got != 2 {
		t.Fatalf("after two sweeps the job list was built %d times, want 2 (one per sweep)", got)
	}
}

// allDone reports whether every named job of group g is done.
func allDone(t *testing.T, c *Coordinator, names []string) bool {
	for _, n := range names {
		if status(t, c, "g/"+n).State != StateDone {
			return false
		}
	}
	return true
}
