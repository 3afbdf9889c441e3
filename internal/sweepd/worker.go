package sweepd

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skipit/internal/sim"
	"skipit/internal/sweep"
)

// WorkerConfig configures one fleet worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator ("w1", "host:3").
	Name string
	// Client speaks the job API (wrap its transport in a FaultTransport to
	// inject faults).
	Client *Client
	// Source resolves leased specs to runnable jobs. Required. A
	// PerSweepJobs source is rebuilt after each drain.
	Source JobSource
	// PollEvery bounds the idle poll interval when the coordinator declines
	// to suggest one. Default 500ms.
	PollEvery time.Duration
	// JobTimeout is the per-job wall-clock cap; past it the worker reports
	// FailTimeout and abandons the run (the simulator's own cycle-domain
	// watchdog — armed inside the job — is the first line of defense; this
	// is the backstop for host-side wedges). 0 disables.
	JobTimeout time.Duration
	// ExitWhenDrained stops Run once the coordinator reports the queue
	// drained (ephemeral CI workers); otherwise the worker keeps polling.
	ExitWhenDrained bool
	// Logf receives operational log lines. Default discards.
	Logf func(format string, args ...any)
}

// Worker leases jobs, executes them with heartbeats, and reports structured
// completions. A panic or sim hang inside a job becomes a typed Failure —
// the worker itself never dies of a bad job.
type Worker struct {
	cfg  WorkerConfig
	stop chan struct{}
	once sync.Once
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{cfg: cfg, stop: make(chan struct{})}
}

// Stop makes Run return after the current job completes.
func (w *Worker) Stop() { w.once.Do(func() { close(w.stop) }) }

// Run is the worker's main loop: register, lease, execute, complete. It
// returns when Stop is called or, with ExitWhenDrained, when the queue
// drains. Transport errors back off and retry — a worker outlives
// coordinator restarts and partitions.
func (w *Worker) Run() error {
	hb := w.register()
	transportErrs := 0
	for {
		select {
		case <-w.stop:
			return nil
		default:
		}
		lease, err := w.cfg.Client.Lease(LeaseRequest{Worker: w.cfg.Name})
		if err != nil {
			transportErrs++
			w.sleep(backoffPoll(w.cfg.PollEvery, transportErrs))
			continue
		}
		transportErrs = 0
		if lease.Job == nil {
			if d, ok := w.cfg.Source.(drainer); ok && lease.Drained {
				d.drained()
			}
			if lease.Drained && w.cfg.ExitWhenDrained {
				w.cfg.Logf("sweepd: worker %s: queue drained, exiting", w.cfg.Name)
				return nil
			}
			wait := w.cfg.PollEvery
			if lease.WaitMillis > 0 {
				if s := time.Duration(lease.WaitMillis) * time.Millisecond; s < wait {
					wait = s
				}
			}
			w.sleep(wait)
			continue
		}
		w.execute(*lease.Job, lease.LeaseID, hb)
	}
}

// register loops until the coordinator accepts the worker (or Stop).
func (w *Worker) register() (heartbeatEvery time.Duration) {
	heartbeatEvery = w.cfg.PollEvery
	for {
		resp, err := w.cfg.Client.Register(RegisterRequest{Worker: w.cfg.Name})
		if err == nil {
			if resp.HeartbeatMillis > 0 {
				heartbeatEvery = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			}
			return heartbeatEvery
		}
		w.cfg.Logf("sweepd: worker %s: register: %v", w.cfg.Name, err)
		select {
		case <-w.stop:
			return heartbeatEvery
		case <-time.After(w.cfg.PollEvery):
		}
	}
}

// execute runs one leased job under heartbeats and reports its completion.
func (w *Worker) execute(spec JobSpec, leaseID uint64, heartbeatEvery time.Duration) {
	job, ok := w.cfg.Source.Resolve(spec.Group, spec.Name)
	var rec *sweep.Record
	var fail *Failure
	switch {
	case !ok:
		fail = &Failure{Code: FailUnknownJob,
			Message: fmt.Sprintf("worker %s has no job %s in its table", w.cfg.Name, spec.ID())}
	case job.Fingerprint != spec.Fingerprint:
		fail = &Failure{Code: FailFingerprint,
			Message: fmt.Sprintf("worker %s resolves %s to fingerprint %s, coordinator wants %s (build drift)",
				w.cfg.Name, spec.ID(), job.Fingerprint, spec.Fingerprint)}
	default:
		rec, fail = w.runWithHeartbeats(job, leaseID, heartbeatEvery)
		if rec == nil && fail == nil {
			return // run abandoned (lease cancelled); nothing to report
		}
	}
	if fail != nil {
		w.cfg.Logf("sweepd: worker %s: job %s failed: %s", w.cfg.Name, spec.ID(), fail.Error())
	}
	// Push the completion with a few retries: a dropped complete otherwise
	// costs a whole lease TTL. A stale response is fine — the work is done.
	req := CompleteRequest{Worker: w.cfg.Name, LeaseID: leaseID, Record: rec, Failure: fail}
	for i := 0; i < 5; i++ {
		if _, err := w.cfg.Client.Complete(req); err == nil {
			return
		}
		w.sleep(backoffPoll(w.cfg.PollEvery/4, i+1))
	}
	w.cfg.Logf("sweepd: worker %s: could not deliver completion for %s (lease will expire)",
		w.cfg.Name, spec.ID())
}

// runWithHeartbeats executes the job on its own goroutine while the worker
// goroutine heartbeats, carrying live progress from the sweep.Runner's
// Progress hook. Cancellation (lease lost) and JobTimeout abandon the run:
// the goroutine is left to finish and its late completion is handled by the
// coordinator's stale-complete path.
func (w *Worker) runWithHeartbeats(job sweep.Job, leaseID uint64, heartbeatEvery time.Duration) (*sweep.Record, *Failure) {
	var progress atomic.Value
	progress.Store("running")
	type outcome struct {
		res sweep.JobResult
	}
	resCh := make(chan outcome, 1)
	go func() {
		runner := sweep.Runner{
			Workers: 1,
			Progress: func(ev sweep.ProgressEvent) {
				progress.Store(fmt.Sprintf("%s:%s", ev.State, ev.Name))
			},
		}
		results := runner.Run([]sweep.Job{job})
		resCh <- outcome{res: results[0]}
	}()

	var timeout <-chan time.Time
	if w.cfg.JobTimeout > 0 {
		t := time.NewTimer(w.cfg.JobTimeout)
		defer t.Stop()
		timeout = t.C
	}
	hb := time.NewTicker(heartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case out := <-resCh:
			return toWire(out.res)
		case <-timeout:
			return nil, &Failure{Code: FailTimeout,
				Message: fmt.Sprintf("job %s/%s exceeded the worker's %s wall timeout", job.Group, job.Name, w.cfg.JobTimeout)}
		case <-hb.C:
			p, _ := progress.Load().(string)
			resp, err := w.cfg.Client.Heartbeat(HeartbeatRequest{
				Worker: w.cfg.Name, LeaseID: leaseID, Progress: p})
			if err == nil && resp.Cancel {
				w.cfg.Logf("sweepd: worker %s: lease %d cancelled mid-run, abandoning", w.cfg.Name, leaseID)
				return nil, nil // nothing to report; the lease moved on
			}
		}
	}
}

// toWire converts an in-process job result into the wire (record, failure)
// pair, classifying errors: a sim watchdog HangError carries its structured
// report; a recovered panic is labeled as such; everything else is a plain
// run error.
func toWire(res sweep.JobResult) (*sweep.Record, *Failure) {
	if res.Err == nil {
		r := res.Record
		return &r, nil
	}
	var hang *sim.HangError
	if errors.As(res.Err, &hang) {
		return nil, &Failure{Code: FailHang, Message: hang.Report.Summary(),
			HangReport: hang.Report.JSON()}
	}
	if strings.Contains(res.Err.Error(), "panicked:") {
		return nil, &Failure{Code: FailPanic, Message: res.Err.Error()}
	}
	return nil, &Failure{Code: FailRunError, Message: res.Err.Error()}
}

// backoffPoll is the worker-side transport-retry delay: linear growth capped
// at 8x, deliberately unsynchronized with the coordinator's job backoff.
func backoffPoll(base time.Duration, errs int) time.Duration {
	if errs > 8 {
		errs = 8
	}
	return base * time.Duration(errs)
}

// sleep waits d or until Stop.
func (w *Worker) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	select {
	case <-w.stop:
	case <-time.After(d):
	}
}
