package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"skipit/internal/isa"
	"skipit/internal/metrics"
	"skipit/internal/sim"
)

// socCBO is the soc-cbo workload: one long run on a 4-core serial
// sim.System with fast-forward at its default. Each core runs a seeded
// stream of loads, stores, CBO.CLEAN/CBO.FLUSH, redundant cleans of one line
// and fences over its own region, and reads the other cores' hot lines.
// Every line is stored to by one core only, so its final value is that
// core's last store; each stream ends by cleaning every line it wrote and
// fencing, after which NVMM must hold those values.
type socCBO struct {
	seed          int64
	instrsPerCore int
}

const (
	socCores = 4
	// socRegion is each core's working set: above the 32 KiB L1, below its
	// 128 KiB share of the 512 KiB L2.
	socRegion = 64 << 10
	// socHot is the head of each region that the other cores also read,
	// which forces probes of lines the owner holds dirty.
	socHot   = 1 << 10
	socLine  = 64
	socLimit = 1 << 32
	// socRedund is the redundant cleans in a burst after a line's real
	// clean: 1 real + 4 redundant, as in the coalescing ablation
	// (bench.AblationJobs).
	socRedund = 4
)

// socMix is each stream's op mix, in twentieths. It is the mix of the chaos
// fuzzer's program generator (internal/chaos/fuzz.go: 6 stores, 5 loads,
// 4 AMOs, 2 CBO.CLEAN, 1 CBO.FLUSH, 1 CFLUSH.D.L1 and 1 fence in 20), the
// repository's only randomised load/store/CBO stream for this SoC, with two
// substitutions for the kinds this workload does not issue: its AMOs become
// loads, and its CFLUSH.D.L1 becomes a redundant-clean burst.
// TestSocMixMatchesChaosGenerator measures the generator and holds the two
// together.
var socMix = struct{ load, store, clean, flush, burst, fence int }{
	load: 9, store: 6, clean: 2, flush: 1, burst: 1, fence: 1,
}

// The chaos generator's pools are private to each core, so the sharing is
// this workload's own choice: socRemoteLoad of the socMix.load twentieths
// read another core's hot head, and one store in socHotStore goes to the
// storing core's own hot head, which the others read.
const (
	socRemoteLoad = 2
	socHotStore   = 4
)

// socBase is core c's region base address.
func socBase(c int) uint64 { return uint64(c+1) << 24 }

// programs generates the per-core programs and, for every word each core
// stores to, the value its last store leaves there.
func (w *socCBO) programs() ([]*isa.Program, []map[uint64]uint64) {
	progs := make([]*isa.Program, socCores)
	want := make([]map[uint64]uint64, socCores)
	m := socMix
	for c := 0; c < socCores; c++ {
		rng := rand.New(rand.NewSource(w.seed*7919 + int64(c)))
		base := socBase(c)
		word := func(span uint64) uint64 { return base + uint64(rng.Int63n(int64(span/8)))*8 }
		b := isa.NewBuilder()
		last := map[uint64]uint64{}
		lines := map[uint64]bool{}
		cleaned := base
		for b.Mark() < w.instrsPerCore {
			switch roll := rng.Intn(20); {
			case roll < socRemoteLoad:
				other := (c + 1 + rng.Intn(socCores-1)) % socCores
				b.Load(socBase(other) + uint64(rng.Int63n(socHot/8))*8)
			case roll < m.load:
				b.Load(word(socRegion))
			case roll < m.load+m.store:
				a := word(socRegion)
				if rng.Intn(socHotStore) == 0 {
					a = word(socHot)
				}
				v := rng.Uint64() | 1
				b.Store(a, v)
				last[a] = v
				lines[a&^(socLine-1)] = true
			case roll < m.load+m.store+m.clean:
				cleaned = word(socRegion) &^ (socLine - 1)
				b.CboClean(cleaned)
			case roll < m.load+m.store+m.clean+m.flush:
				b.CboFlush(word(socRegion) &^ (socLine - 1))
			case roll < m.load+m.store+m.clean+m.flush+m.burst:
				for i := 0; i < socRedund; i++ {
					b.CboClean(cleaned)
				}
			default:
				b.Fence()
			}
		}
		written := make([]uint64, 0, len(lines))
		for l := range lines {
			written = append(written, l)
		}
		sort.Slice(written, func(i, j int) bool { return written[i] < written[j] })
		for _, l := range written {
			b.CboClean(l)
		}
		b.Fence()
		progs[c] = b.Build()
		want[c] = last
	}
	return progs, want
}

// setup generates the programs and builds the system.
func (w *socCBO) setup(tr *tracer) (instance, error) {
	progs, want := w.programs()
	id := -1
	if tr != nil {
		id = tr.begin("sim.New", -1)
	}
	t0 := time.Now()
	s := sim.New(sim.DefaultConfig(socCores))
	newDur := time.Since(t0)
	if tr != nil {
		tr.end(id, 0)
	}
	return &socInstance{s: s, progs: progs, want: want, newDur: newDur}, nil
}

type socInstance struct {
	s      *sim.System
	progs  []*isa.Program
	want   []map[uint64]uint64
	newDur time.Duration

	runDur   time.Duration
	finished int64
	runErr   error
	snap     metrics.Snapshot // after the run, host-only counters included
}

func (x *socInstance) measure(tr *tracer) error {
	id := -1
	if tr != nil {
		id = tr.begin("sim.System.Run", -1)
	}
	t0 := time.Now()
	x.finished, x.runErr = x.s.Run(x.progs, socLimit)
	x.runDur = time.Since(t0)
	if tr != nil {
		tr.end(id, 0)
	}
	return nil
}

// check requires the run to succeed and every stored word's NVMM value to
// be its core's last store. A failed run fails every word.
func (x *socInstance) check() (attempted, failed int, err error) {
	x.snap = x.s.Snapshot()
	if x.runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: sim.System.Run: %v\n", x.runErr)
	}
	for _, words := range x.want {
		attempted += len(words)
		for a, v := range words {
			if x.runErr != nil || x.s.Mem.PeekUint64(a) != v {
				failed++
			}
		}
	}
	return attempted, failed, nil
}

// socOutput is the run's deterministic result: where it finished and every
// simulated counter, with the host-only ones stripped.
type socOutput struct {
	Finished int64
	Now      int64
	Snapshot metrics.Snapshot
}

func (x *socInstance) outputs() any {
	snap := x.s.Snapshot()
	sim.StripHostOnly(&snap)
	return socOutput{Finished: x.finished, Now: x.s.Now(), Snapshot: snap}
}

func (x *socInstance) work() (ops, simCycles float64) {
	return float64(x.snap.Counters["core.committed"]), float64(x.s.Now())
}

func (x *socInstance) layers(tr *tracer) map[string]float64 {
	c := x.snap.Counters
	n := func(k string) float64 { return float64(c[k]) }
	now := float64(x.s.Now())
	skipped := float64(x.s.SkippedCycles())
	runNs := float64(x.runDur)
	return map[string]float64{
		"sim.new_ms":                    float64(x.newDur) / 1e6,
		"sim.ns_per_cycle":              ratio(runNs, now),
		"sim.ns_per_ticked_cycle":       ratio(runNs, now-skipped),
		"sim.ff_skipped_ratio":          ratio(skipped, now),
		"core.committed":                n("core.committed"),
		"core.nack_retries":             n("core.nack_retries"),
		"l1.load_hit_ratio":             ratio(n("l1.load_hits"), n("l1.loads")),
		"l1.store_hit_ratio":            ratio(n("l1.store_hits"), n("l1.stores")),
		"l1.nacks":                      n("l1.nacks"),
		"l1.writebacks":                 n("l1.writebacks"),
		"flush.offered":                 n("flush.offered"),
		"flush.offered_per_instr":       ratio(n("flush.offered"), n("core.committed")),
		"flush.skip_dropped":            n("flush.skip_dropped"),
		"flush.root_releases":           n("flush.root_releases"),
		"flush.stall_wb_rdy_cycles":     n("flush.stall_wb_rdy_cycles"),
		"l2.acquires":                   n("l2.acquires"),
		"l2.acquires_per_instr":         ratio(n("l2.acquires"), n("core.committed")),
		"l2.root_release_skips":         n("l2.root_release_skips"),
		"l2.link_backpressure_d_cycles": n("l2.link_backpressure_d_cycles"),
		"mem.reads":                     n("mem.reads"),
		"mem.writes":                    n("mem.writes"),
		"mem.writes_per_instr":          ratio(n("mem.writes"), n("core.committed")),
		"pool.hit_ratio":                ratio(n("pool.hits"), n("pool.hits")+n("pool.misses")),
	}
}

func (x *socInstance) close() error { return nil }
