package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// instance is one set-up copy of a workload: everything the measured phase
// needs, built by the workload's setup function.
type instance interface {
	// measure runs the measured phase; tr is nil in an untraced rep.
	measure(tr *tracer) error
	// check verifies the phase's outputs and counts the operations it
	// attempted and the ones that failed or gave a wrong answer.
	check() (attempted, failed int, err error)
	// outputs are the deterministic results that every rep with the same
	// seed must reproduce exactly, traced or not.
	outputs() any
	// work is what the measured phase completed: operations, and simulated
	// cycles.
	work() (ops, simCycles float64)
	// layers returns the per-layer metrics of a traced rep.
	layers(tr *tracer) map[string]float64
	// close releases what the instance holds outside the Go heap.
	close() error
}

// setupFunc builds one instance; its duration is the workload's set-up time.
// tr is nil in an untraced rep.
type setupFunc func(tr *tracer) (instance, error)

// phase is the host-side cost of one measured phase.
type phase struct {
	wall      time.Duration
	cpu       time.Duration
	allocB    uint64
	heapPeakB uint64
	gcCycles  uint32
	gcPauseNs uint64
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap polls the Go heap's live object bytes every millisecond until
// the returned stop function is called; stop returns the peak it saw.
func sampleHeap() (stop func() uint64) {
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	done := make(chan struct{})
	peakc := make(chan uint64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		read := func() {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		read()
		for {
			select {
			case <-done:
				read()
				peakc <- peak
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peakc
	}
}

// measurePhase runs fn and records its host-side cost.
func measurePhase(fn func() error) (phase, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	stop := sampleHeap()
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	peak := stop()
	runtime.ReadMemStats(&m1)
	return phase{
		wall:      wall,
		cpu:       cpu,
		allocB:    m1.TotalAlloc - m0.TotalAlloc,
		heapPeakB: peak,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}, err
}

// rep is the measurement of one untraced or traced measured phase.
type rep struct {
	ph             phase
	ops, simCycles float64
	layers         map[string]float64 // traced reps only
}

// runResult gathers every rep of one benchmark run.
type runResult struct {
	setups    []float64 // seconds, one per set-up
	untraced  []rep
	traced    []rep
	attempted int
	failed    int
	digest    string  // sha256 of the first rep's outputs
	lastTrace *tracer // spans of the last traced rep
}

// An untraced run times at least minSetups set-ups, so that setup_s is a
// median even when a single rep fills the budget. Cheap set-ups are repeated
// further, up to maxSetups, until the extra ones have taken setupExtra.
const (
	minSetups  = 10
	maxSetups  = 100
	setupExtra = time.Second
)

// timedSetup sets up one instance from a collected heap, so garbage left by
// the previous rep does not land a collection inside the timed set-up.
func timedSetup(setup setupFunc, tr *tracer) (instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := setup(tr)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return inst, time.Since(t0).Seconds(), nil
}

// runReps sets up and measures the workload repeatedly until budget is
// spent: at least one rep, and another only while the last rep's duration
// still fits. A traced run alternates untraced and traced reps and makes at
// least one of each. Every rep's outputs must equal the first rep's; a rep
// that differs counts as one failed operation.
func runReps(setup setupFunc, budget time.Duration, traced bool, log io.Writer) (*runResult, error) {
	res := &runResult{}
	var first []byte
	minReps := 1
	if traced {
		minReps = 2
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i < minReps || time.Since(start)+last <= budget; i++ {
		repStart := time.Now()
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		inst, secs, err := timedSetup(setup, tr)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, secs)
		ph, err := measurePhase(func() error { return inst.measure(tr) })
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("measured phase: %w", err)
		}
		attempted, failed, err := inst.check()
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("check: %w", err)
		}
		out, err := json.Marshal(inst.outputs())
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("encoding outputs: %w", err)
		}
		if first == nil {
			first = out
			sum := sha256.Sum256(out)
			res.digest = hex.EncodeToString(sum[:])
		} else if !bytes.Equal(out, first) {
			fmt.Fprintf(log, "perfbench: rep %d (traced=%v) outputs differ from rep 0\n", i, tr != nil)
			failed++
		}
		res.attempted += attempted
		res.failed += failed
		r := rep{ph: ph}
		r.ops, r.simCycles = inst.work()
		if tr != nil {
			r.layers = inst.layers(tr)
			res.traced = append(res.traced, r)
			res.lastTrace = tr
		} else {
			res.untraced = append(res.untraced, r)
		}
		if err := inst.close(); err != nil {
			return nil, err
		}
		last = time.Since(repStart)
	}
	var extra float64
	for !traced && (len(res.setups) < minSetups || len(res.setups) < maxSetups && extra < setupExtra.Seconds()) {
		inst, secs, err := timedSetup(setup, nil)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, secs)
		extra += secs
		if err := inst.close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEndMetrics reduces the untraced reps to the end-to-end metrics.
func (r *runResult) endToEndMetrics() map[string]float64 {
	pick := func(f func(rep) float64) float64 {
		v := make([]float64, len(r.untraced))
		for i, u := range r.untraced {
			v[i] = f(u)
		}
		return median(v)
	}
	const mib = 1 << 20
	return map[string]float64{
		"setup_s":          median(r.setups),
		"wall_s":           pick(func(u rep) float64 { return u.ph.wall.Seconds() }),
		"cpu_s":            pick(func(u rep) float64 { return u.ph.cpu.Seconds() }),
		"ops_per_s":        pick(func(u rep) float64 { return u.ops / u.ph.wall.Seconds() }),
		"sim_cycles_per_s": pick(func(u rep) float64 { return u.simCycles / u.ph.wall.Seconds() }),
		"heap_peak_mb":     pick(func(u rep) float64 { return float64(u.ph.heapPeakB) / mib }),
		"alloc_mb":         pick(func(u rep) float64 { return float64(u.ph.allocB) / mib }),
	}
}

// perLayerMetrics reduces the traced reps to per-layer metrics (the median
// of each), adding the Go runtime's GC counts from the untraced reps and the
// tracing overhead.
func (r *runResult) perLayerMetrics() map[string]float64 {
	out := map[string]float64{}
	names := map[string]bool{}
	for _, t := range r.traced {
		for k := range t.layers {
			names[k] = true
		}
	}
	for k := range names {
		v := make([]float64, len(r.traced))
		for i, t := range r.traced {
			v[i] = t.layers[k]
		}
		out[k] = median(v)
	}
	wall := func(reps []rep) float64 {
		v := make([]float64, len(reps))
		for i, u := range reps {
			v[i] = u.ph.wall.Seconds()
		}
		return median(v)
	}
	gcCycles := make([]float64, len(r.untraced))
	gcPause := make([]float64, len(r.untraced))
	for i, u := range r.untraced {
		gcCycles[i] = float64(u.ph.gcCycles)
		gcPause[i] = float64(u.ph.gcPauseNs) / 1e6
	}
	out["go.gc_cycles"] = median(gcCycles)
	out["go.gc_pause_ms"] = median(gcPause)
	out["trace.overhead_s"] = wall(r.traced) - wall(r.untraced)
	return out
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of v.
func percentile(v []int64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := min(max(int(math.Ceil(p/100*float64(len(s))))-1, 0), len(s)-1)
	return float64(s[k])
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
