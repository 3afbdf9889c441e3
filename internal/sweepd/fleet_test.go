package sweepd

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipit/internal/sweep"
)

// synthJob builds a deterministic synthetic measurement: cycles are a pure
// function of the name, so any executor computes the same record.
func synthJob(group, name string, cycles float64) sweep.Job {
	return sweep.Job{
		Group: group, Name: name, Fingerprint: "fp-" + name,
		Run: func(sweep.Sink) (sweep.Outcome, error) {
			return sweep.Outcome{Cycles: cycles, Reps: 1}, nil
		},
	}
}

func TestFleetFallsBackWhenCoordinatorUnreachable(t *testing.T) {
	st := testStore(t)
	var mu sync.Mutex
	var logs []string
	fleet := &Fleet{
		Client:        &Client{T: errTransport{}},
		Fallback:      sweep.Runner{Workers: 2},
		Store:         st,
		PollEvery:     time.Millisecond,
		SubmitRetries: 2,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	jobs := []sweep.Job{synthJob("g", "a", 100), synthJob("g", "b", 200)}
	results := fleet.Run(jobs)
	if err := sweep.FirstError(results); err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if results[0].Record.Cycles != 100 || results[1].Record.Cycles != 200 {
		t.Fatalf("fallback results: %+v", results)
	}
	degraded := false
	for _, l := range logs {
		if strings.Contains(l, "DEGRADED") {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("downgrade was not logged: %v", logs)
	}
	if _, ok := st.Lookup("g", "a", "fp-a"); !ok {
		t.Fatal("fallback records did not land in the local store")
	}
}

func TestFleetServesLocalCacheHitsWithoutCoordinator(t *testing.T) {
	st := testStore(t)
	st.Put("g", sweep.Record{Group: "g", Name: "a", Fingerprint: "fp-a", Cycles: 5, Reps: 1})
	fleet := &Fleet{Client: &Client{T: errTransport{}}, Store: st}
	results := fleet.Run([]sweep.Job{synthJob("g", "a", 5)})
	if !results[0].Cached || results[0].Record.Cycles != 5 {
		t.Fatalf("cache hit should never touch the wire: %+v", results[0])
	}
}

func TestFleetRunsThroughCoordinatorByteIdentical(t *testing.T) {
	jobs := []sweep.Job{
		synthJob("figA", "p1", 1000),
		synthJob("figA", "p2", 1100),
		synthJob("figB", "q1", 2000),
		synthJob("figB", "q2", 2100),
	}

	// Serial reference run.
	serialStore := testStore(t)
	serial := sweep.Runner{Workers: 1, Store: serialStore}
	if err := sweep.FirstError(serial.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if err := serialStore.Flush(); err != nil {
		t.Fatal(err)
	}

	// Fleet run over the in-process HTTP stack, one worker. The worker
	// exits once it sees a drained queue, so it must not start before the
	// Fleet's submit is acknowledged: a worker that leases first finds the
	// queue empty, exits, and leaves the submitted jobs with no one to run
	// them.
	coordStore := testStore(t)
	c, err := NewCoordinator(CoordConfig{Store: coordStore, Seed: 3,
		LeaseTTL: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	transport := &coordTransport{c: c}
	w := NewWorker(WorkerConfig{
		Name: "w1", Client: &Client{T: transport},
		Source: IndexJobs(jobs), PollEvery: 5 * time.Millisecond,
		ExitWhenDrained: true, Logf: t.Logf,
	})
	submitted := &submitSignal{Transport: transport, acked: make(chan struct{})}
	done := make(chan error, 1)
	testDone := make(chan struct{})
	t.Cleanup(func() { close(testDone) })
	go func() {
		select {
		case <-submitted.acked:
			done <- w.Run()
		case <-testDone:
		}
	}()

	fleetStore := testStore(t)
	var degraded atomic.Bool
	fleet := &Fleet{
		Client: &Client{T: submitted}, Fallback: sweep.Runner{Workers: 1},
		Store: fleetStore, PollEvery: 5 * time.Millisecond, Timeout: 30 * time.Second,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "DEGRADED") {
				degraded.Store(true)
			}
			t.Logf(format, args...)
		},
	}
	results := fleet.Run(jobs)
	if err := sweep.FirstError(results); err != nil {
		t.Fatalf("fleet run failed: %v", err)
	}
	if degraded.Load() {
		t.Fatal("fleet run downgraded to the in-process runner; the worker never ran the jobs")
	}
	for i := range jobs {
		if results[i].Record.Fingerprint != jobs[i].Fingerprint {
			t.Fatalf("result %d fingerprint: %+v", i, results[i].Record)
		}
	}
	if err := fleetStore.Flush(); err != nil {
		t.Fatal(err)
	}
	assertStoresByteIdentical(t, serialStore.Dir(), fleetStore.Dir(), []string{"figA", "figB"})

	waitFor(t, 5*time.Second, "worker drain", func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
}

// submitSignal closes acked after the first successful submit through it.
type submitSignal struct {
	Transport
	once  sync.Once
	acked chan struct{}
}

func (s *submitSignal) Call(path string, req, resp any) error {
	err := s.Transport.Call(path, req, resp)
	if err == nil && path == "/api/sweepd/submit" {
		s.once.Do(func() { close(s.acked) })
	}
	return err
}

func TestFleetFallsBackWhenNoWorkerDrainsTheQueue(t *testing.T) {
	// A reachable coordinator with no worker: the run must hit its
	// deadline and finish in process instead of polling forever.
	c, err := NewCoordinator(CoordConfig{Store: testStore(t), Seed: 3,
		LeaseTTL: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var degraded atomic.Bool
	fleet := &Fleet{
		Client: &Client{T: &coordTransport{c: c}}, Fallback: sweep.Runner{Workers: 1},
		Store: testStore(t), PollEvery: time.Millisecond, Timeout: 50 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "exceeded") {
				degraded.Store(true)
			}
		},
	}
	results := fleet.Run([]sweep.Job{synthJob("g", "a", 100)})
	if err := sweep.FirstError(results); err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if results[0].Record.Cycles != 100 {
		t.Fatalf("fallback result: %+v", results[0])
	}
	if !degraded.Load() {
		t.Fatal("the timeout downgrade was not logged")
	}
}
