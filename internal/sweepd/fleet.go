package sweepd

import (
	"time"

	"skipit/internal/sweep"
)

// DefaultFleetTimeout is the fleet-run cap used when Fleet.Timeout is zero.
const DefaultFleetTimeout = 10 * time.Minute

// Fleet runs a job slice through a remote coordinator, returning results in
// submission order — a drop-in for sweep.Runner.Run, with the same local
// store semantics (content-address hits skip submission; fresh records are
// Put for the caller to Flush). Degradation is explicit: when the
// coordinator is unreachable at submit time, or polling fails
// PollFailBudget consecutive times mid-run, the remaining jobs downgrade to
// the in-process Fallback runner with a logged notice — a dead fleet costs
// wall time, never results.
type Fleet struct {
	Client *Client
	// Fallback executes jobs in process on downgrade. Its Store/Force
	// should match Fleet's so store handling stays uniform.
	Fallback sweep.Runner
	// Store and Force mirror sweep.Runner: local content-address hits are
	// served without touching the coordinator, and fresh fleet records are
	// Put (the caller flushes).
	Store *sweep.Store
	Force bool
	// Priority maps a job index to its shed priority (higher survives
	// longer under coordinator overload). Nil means all zero.
	Priority func(i int) int
	// PollEvery is the results poll interval. Default 250ms.
	PollEvery time.Duration
	// PollFailBudget is how many consecutive poll failures trigger the
	// downgrade. Default 20.
	PollFailBudget int
	// SubmitRetries bounds submit attempts before downgrading. Default 3.
	SubmitRetries int
	// Timeout caps the whole fleet run; past it the remaining jobs
	// downgrade. Default DefaultFleetTimeout, so a run whose workers have
	// all exited falls back in process instead of polling forever.
	Timeout time.Duration
	// Logf receives the downgrade notices. Default discards.
	Logf func(format string, args ...any)
}

// Run executes jobs via the fleet, falling back in process when the
// coordinator is unreachable. Results are in submission order and
// bit-identical to sweep.Runner.Run on the same jobs: records are
// deterministic, so where they ran cannot show in the bytes.
func (f *Fleet) Run(jobs []sweep.Job) []sweep.JobResult {
	logf := f.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	pollEvery := f.PollEvery
	if pollEvery <= 0 {
		pollEvery = 250 * time.Millisecond
	}
	failBudget := f.PollFailBudget
	if failBudget <= 0 {
		failBudget = 20
	}
	submitRetries := f.SubmitRetries
	if submitRetries <= 0 {
		submitRetries = 3
	}
	timeout := f.Timeout
	if timeout <= 0 {
		timeout = DefaultFleetTimeout
	}

	results := make([]sweep.JobResult, len(jobs))
	byID := make(map[string]int, len(jobs))
	var specs []JobSpec
	var ids []string
	for i := range jobs {
		job := jobs[i]
		results[i].Group = job.Group
		// Local content-address hits never cross the wire.
		if f.Store != nil && !f.Force {
			if rec, ok := f.Store.Lookup(job.Group, job.Name, job.Fingerprint); ok {
				results[i].Record = rec
				results[i].Cached = true
				continue
			}
		}
		prio := 0
		if f.Priority != nil {
			prio = f.Priority(i)
		}
		spec := SpecFor(job, prio)
		byID[spec.ID()] = i
		specs = append(specs, spec)
		ids = append(ids, spec.ID())
	}
	if len(specs) == 0 {
		return results
	}

	// Submit with a short retry budget; an unreachable coordinator
	// downgrades the whole run.
	var submitted bool
	for attempt := 1; attempt <= submitRetries; attempt++ {
		if _, err := f.Client.Submit(SubmitRequest{Jobs: specs}); err == nil {
			submitted = true
			break
		} else if attempt == submitRetries {
			logf("sweepd: DEGRADED: coordinator unreachable after %d submit attempts (%v); falling back to the in-process runner for %d job(s)",
				submitRetries, err, len(specs))
		} else {
			time.Sleep(pollEvery * time.Duration(attempt))
		}
	}
	if !submitted {
		return f.fallback(jobs, results, byID, logf)
	}

	// Poll until every submitted job is terminal.
	deadline := time.Now().Add(timeout)
	consecutiveFails := 0
	for {
		resp, err := f.Client.Results(ResultsRequest{IDs: ids})
		if err != nil {
			consecutiveFails++
			if consecutiveFails >= failBudget {
				logf("sweepd: DEGRADED: lost the coordinator mid-run (%d consecutive poll failures: %v); finishing the remaining jobs in process",
					consecutiveFails, err)
				return f.fallback(jobs, f.absorb(results, byID, nil), byID, logf)
			}
			time.Sleep(pollEvery)
			continue
		}
		consecutiveFails = 0
		results = f.absorb(results, byID, resp.Jobs)
		if resp.Done {
			break
		}
		if time.Now().After(deadline) {
			logf("sweepd: DEGRADED: fleet run exceeded %s; finishing the remaining jobs in process", timeout)
			return f.fallback(jobs, results, byID, logf)
		}
		time.Sleep(pollEvery)
	}
	f.putFresh(results)
	return results
}

// absorb folds terminal fleet statuses into the result slice.
func (f *Fleet) absorb(results []sweep.JobResult, byID map[string]int, statuses []JobStatus) []sweep.JobResult {
	for _, st := range statuses {
		i, ok := byID[st.Job.ID()]
		if !ok {
			continue
		}
		switch st.State {
		case StateDone:
			if st.Record != nil {
				results[i].Record = *st.Record
				results[i].Err = nil
			}
		case StateFailed:
			fail := Failure{Code: FailRunError}
			if st.Failure != nil {
				fail = *st.Failure
			}
			results[i].Err = &JobError{Job: st.Job, Attempts: st.Attempt, Failure: fail}
		}
	}
	return results
}

// fallback finishes every unresolved job on the in-process runner and merges
// the outcomes, preserving submission order.
func (f *Fleet) fallback(jobs []sweep.Job, results []sweep.JobResult, byID map[string]int, logf func(string, ...any)) []sweep.JobResult {
	var rest []sweep.Job
	var restIdx []int
	for i := range jobs {
		if results[i].Cached || results[i].Err != nil || results[i].Record.Name != "" {
			continue
		}
		rest = append(rest, jobs[i])
		restIdx = append(restIdx, i)
	}
	if len(rest) == 0 {
		f.putFresh(results)
		return results
	}
	logf("sweepd: running %d job(s) in process", len(rest))
	runner := f.Fallback
	runner.Store = f.Store
	runner.Force = f.Force
	sub := runner.Run(rest)
	for k, i := range restIdx {
		results[i] = sub[k]
	}
	f.putFresh(results)
	return results
}

// putFresh mirrors sweep.Runner's store handling for fleet-computed records:
// every successful non-cached result lands in the local store, in submission
// order, so the files the caller flushes are byte-identical to an in-process
// run. Double puts (a record the fallback runner already stored) replace by
// name with identical content — harmless.
func (f *Fleet) putFresh(results []sweep.JobResult) {
	if f.Store == nil {
		return
	}
	for i := range results {
		if !results[i].Cached && results[i].Err == nil && results[i].Record.Name != "" {
			f.Store.Put(results[i].Group, results[i].Record)
		}
	}
}
