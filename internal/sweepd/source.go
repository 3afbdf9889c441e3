package sweepd

import "skipit/internal/sweep"

// JobSource resolves a wire JobSpec back to a runnable sweep.Job. Workers
// are compiled with the same job builders as the client (the bench figure
// table), so (group, name) identifies the closure and the fingerprint
// proves the worker's build computes the same measurement.
type JobSource interface {
	Resolve(group, name string) (sweep.Job, bool)
}

// jobIndex is the map-backed JobSource.
type jobIndex map[string]sweep.Job

func (ix jobIndex) Resolve(group, name string) (sweep.Job, bool) {
	j, ok := ix[group+"/"+name]
	return j, ok
}

// IndexJobs builds a JobSource over a job slice. Later duplicates of a
// (group, name) win, matching the store's replace-by-name semantics.
func IndexJobs(jobs []sweep.Job) JobSource {
	ix := make(jobIndex, len(jobs))
	for _, j := range jobs {
		ix[j.Group+"/"+j.Name] = j
	}
	return ix
}

// PerSweepJobs is a JobSource over a job list that build makes afresh for
// each sweep a long-lived worker serves. The list is built on the first
// Resolve and dropped each time the coordinator reports the queue drained,
// so state a list owns (bench's shared §7.4 prefills and rows) lives no
// longer than the sweep that leased its jobs, and a later sweep measures
// again. Sweeps whose jobs overlap in one queue share one list. Only the
// Worker's Run loop may use it.
func PerSweepJobs(build func() []sweep.Job) JobSource {
	return &perSweepJobs{build: build}
}

type perSweepJobs struct {
	build func() []sweep.Job
	ix    JobSource // nil until the first Resolve after a drain
}

func (p *perSweepJobs) Resolve(group, name string) (sweep.Job, bool) {
	if p.ix == nil {
		p.ix = IndexJobs(p.build())
	}
	return p.ix.Resolve(group, name)
}

func (p *perSweepJobs) drained() { p.ix = nil }

// drainer is a JobSource that drops per-sweep state when the queue drains.
type drainer interface{ drained() }
