package bench

import (
	"math/rand"
	"testing"

	"skipit/internal/isa"
	"skipit/internal/sim"
)

// stepWorkload builds a program that keeps the whole hierarchy busy: stores
// dirty lines, CBOs push them down, loads pull them back. Used by the
// steady-state benchmarks, so its shape should exercise every pooled
// allocation site (DRAM reads, L2 grants, L1 writebacks, flush-unit FSHRs).
func stepWorkload(rep int) *isa.Program {
	b := isa.NewBuilder()
	base := uint64(0x1000 + rep*0x40000)
	b.StoreRegion(base, 4096, 64, 0xAB)
	b.Fence()
	b.CboRegion(base, 4096, 64, true)
	b.Fence()
	b.LoadRegion(base, 4096, 64)
	b.StoreRegion(base, 4096, 64, 0xCD)
	b.CboRegion(base, 4096, 64, false)
	b.Fence()
	return b.Build()
}

// steadyProgs is the pre-built workload rotation, shared by the zero-alloc
// guard and BenchmarkStep so program construction stays out of the measured
// region.
var steadyProgs = []*isa.Program{
	stepWorkload(0), stepWorkload(1), stepWorkload(2), stepWorkload(3),
}

// runSteadyState runs `rounds` back-to-back pre-built workloads on one warmed
// system and returns the total simulated cycles.
func runSteadyState(s *sim.System, rounds int) int64 {
	start := s.Now()
	for r := 0; r < rounds; r++ {
		if _, err := s.Run([]*isa.Program{steadyProgs[r%len(steadyProgs)]}, runLimit); err != nil {
			panic(err)
		}
	}
	return s.Now() - start
}

// TestStepSteadyStateZeroAlloc is the zero-allocation guard for the cycle
// loop: after one warm-up round fills the line pool and the per-component
// scratch slices, a full additional workload must allocate (amortized)
// nothing per cycle. The small fixed budget covers per-Run setup
// (SetProgram's timing slice, builder output) — what must not appear is
// anything proportional to cycles or misses.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	runSteadyState(s, 2*len(steadyProgs)) // warm: pool, scratch slices, DRAM first-touch
	var cycles int64
	allocs := testing.AllocsPerRun(1, func() {
		cycles = runSteadyState(s, 4)
	})
	if cycles == 0 {
		t.Fatal("workload ran no cycles")
	}
	perKCycle := allocs / float64(cycles) * 1000
	// The only allocations left should be per-Run setup (SetProgram's timing
	// slice — one per round, not per cycle). The pre-pool hot loop allocated
	// one line buffer per miss, hundreds per round, >100 allocs/kcycle; hold
	// the steady state two orders of magnitude below that.
	if perKCycle > 2 {
		t.Fatalf("steady state allocates %.0f objects over %d cycles (%.1f per kcycle)",
			allocs, cycles, perKCycle)
	}
}

// BenchmarkStep measures the raw cycle loop: one core stepping through the
// steady-state workload, reporting ns and allocations per simulated cycle.
// CI compares allocs/op against the committed baseline (bench_baseline.txt).
func BenchmarkStep(b *testing.B) {
	s := sim.New(sim.DefaultConfig(1))
	s.SetFastForward(false)               // measure the honest per-cycle cost
	runSteadyState(s, 2*len(steadyProgs)) // warm the pool and DRAM backing store
	b.ReportAllocs()
	b.ResetTimer()
	cycles := int64(0)
	for i := 0; i < b.N; i++ {
		cycles += runSteadyState(s, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// BenchmarkStepRecorder is BenchmarkStep with the flight recorder armed: the
// per-component rings record every coherence event on the hot path, and this
// variant exists to prove (against the same committed baseline) that doing
// so adds zero allocations per op — recording is a plain struct store into a
// preallocated slot.
func BenchmarkStepRecorder(b *testing.B) {
	s := sim.New(sim.DefaultConfig(1))
	s.SetFastForward(false) // measure the honest per-cycle cost
	s.EnableFlightRecorder(64)
	runSteadyState(s, 2*len(steadyProgs)) // warm the pool and DRAM backing store
	b.ReportAllocs()
	b.ResetTimer()
	cycles := int64(0)
	for i := 0; i < b.N; i++ {
		cycles += runSteadyState(s, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// TestStepRecorderSteadyStateZeroAlloc is TestStepSteadyStateZeroAlloc with
// the flight recorder armed: the same amortized budget must hold, proving
// the recorder adds no per-event allocation.
func TestStepRecorderSteadyStateZeroAlloc(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	s.EnableFlightRecorder(64)
	runSteadyState(s, 2*len(steadyProgs)) // warm: pool, scratch slices, DRAM first-touch
	var cycles int64
	allocs := testing.AllocsPerRun(1, func() {
		cycles = runSteadyState(s, 4)
	})
	if cycles == 0 {
		t.Fatal("workload ran no cycles")
	}
	if perKCycle := allocs / float64(cycles) * 1000; perKCycle > 2 {
		t.Fatalf("recorder-armed steady state allocates %.0f objects over %d cycles (%.1f per kcycle)",
			allocs, cycles, perKCycle)
	}
}

// BenchmarkRunFigure measures one real evaluation point (a Fig. 9 sweep,
// 4 KiB / 1 thread) end to end, fast-forward clock on, as the sweep runner
// executes it.
func BenchmarkRunFigure(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SweepOnce(nil, 4096, 1, true)
	}
}

// BenchmarkRunFigureNoFF is the same point with the next-event clock off —
// the before/after pair quoted in the README.
func BenchmarkRunFigureNoFF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(1)
		measureSweepNoFF(nil, cfg, 4096, 1, true)
	}
}

// measureSweepNoFF mirrors measureSweep with fast-forwarding disabled.
func measureSweepNoFF(sink Sink, cfg sim.Config, total uint64, threads int, clean bool) float64 {
	threads = clampThreads(total, threads)
	cfg.NumCores = threads
	cfg.L2.NumClients = threads
	s := sim.New(cfg)
	s.SetFastForward(false)
	progs := make([]*isa.Program, threads)
	starts := make([]int, threads)
	ends := make([]int, threads)
	per := total / uint64(threads)
	for t := 0; t < threads; t++ {
		base := uint64(t) * (1 << 16)
		progs[t], starts[t], ends[t] = buildSweep(base, per, clean)
	}
	if _, err := s.Run(progs, runLimit); err != nil {
		panic(err)
	}
	emitSnapshot(sink, s, "sweep_noff_size%d_threads%d_clean%v", total, threads, clean)
	var begin, end int64 = 1 << 62, 0
	for t := 0; t < threads; t++ {
		tm := s.Cores[t].Timings()
		if is := tm[starts[t]].IssuedAt; is < begin {
			begin = is
		}
		if c := tm[ends[t]].CompletedAt; c > end {
			end = c
		}
	}
	return float64(end - begin)
}

// idleHeavyProg is the idle-heavy workload: batches of cold misses sized to
// the L1's miss resources (4 MSHRs x 8 replay-queue slots = 32 loads per
// batch, filling the LDQ exactly), so every load is accepted without nack
// chatter and the core then sits fully idle until the fills return. Paired
// with a PMEM-grade read latency, almost every simulated cycle is a memory
// wait — the workload shape the next-event clock exists for.
var idleHeavyProg = func() *isa.Program {
	pb := isa.NewBuilder()
	for batch := 0; batch < 12; batch++ {
		base := 0x10000 + uint64(batch)*0x10000
		for i := 0; i < 32; i++ {
			pb.Load(base + uint64(i%4)*0x1000)
		}
	}
	pb.Fence()
	return pb.Build()
}()

func benchmarkIdleHeavy(b *testing.B, ff bool) {
	cfg := sim.DefaultConfig(1)
	cfg.Mem.ReadLatency = 800 // NVM-grade reads: the paper's persistence domain
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		s := sim.New(cfg)
		s.SetFastForward(ff)
		n, err := s.Run([]*isa.Program{idleHeavyProg}, runLimit)
		if err != nil {
			panic(err)
		}
		cycles += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

func BenchmarkIdleHeavy(b *testing.B)     { benchmarkIdleHeavy(b, true) }
func BenchmarkIdleHeavyNoFF(b *testing.B) { benchmarkIdleHeavy(b, false) }

// --- Deterministic-parallel (PDES) host-throughput benchmarks ---
//
// The serial/parallel pairs below produce bit-identical simulated results
// (see internal/sim/parallel_test.go); what they measure is host throughput.
// The committed speedup note lives in testdata/PARALLEL_SPEEDUP.md and the
// README Performance section quotes the dense 4-core pair.

// denseWorkload is stepWorkload scaled to 16 KiB regions: long enough that
// the per-Run fixed cost (program setup, the engine Session's worker
// launches) amortizes to nothing against the cycles it covers.
func denseWorkload(rep int) *isa.Program {
	b := isa.NewBuilder()
	base := uint64(0x1000 + rep*0x40000)
	b.StoreRegion(base, 16384, 64, 0xAB)
	b.Fence()
	b.CboRegion(base, 16384, 64, true)
	b.Fence()
	b.LoadRegion(base, 16384, 64)
	b.StoreRegion(base, 16384, 64, 0xCD)
	b.CboRegion(base, 16384, 64, false)
	b.Fence()
	return b.Build()
}

// denseProgs returns one dense workload per core on disjoint 256 KiB-spaced
// regions: every core is busy storing, flushing, and reloading at once — the
// dense shape where sharding pays.
func denseProgs(cores, rep int) []*isa.Program {
	progs := make([]*isa.Program, cores)
	for c := range progs {
		progs[c] = denseWorkload(rep*cores + c)
	}
	return progs
}

// runDense runs `rounds` back-to-back pre-built 4-core workloads on one
// warmed system and returns the simulated cycles covered.
func runDense(s *sim.System, rotation [][]*isa.Program, rounds int) int64 {
	start := s.Now()
	for r := 0; r < rounds; r++ {
		if _, err := s.Run(rotation[r%len(rotation)], runLimit); err != nil {
			panic(err)
		}
	}
	return s.Now() - start
}

// benchmarkDense4 is the 4-core dense figure quoted in the README: the same
// warmed system and workload rotation, stepped serially (parallel=0) or with
// PDES workers.
func benchmarkDense4(b *testing.B, parallel int) {
	cfg := sim.DefaultConfig(4)
	cfg.Parallel = parallel
	rotation := [][]*isa.Program{denseProgs(4, 0), denseProgs(4, 1)}
	s := sim.New(cfg)
	runDense(s, rotation, 2*len(rotation)) // warm the pools and DRAM backing store
	b.ReportAllocs()
	b.ResetTimer()
	cycles := int64(0)
	for i := 0; i < b.N; i++ {
		cycles += runDense(s, rotation, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

func BenchmarkDense4Core(b *testing.B)         { benchmarkDense4(b, 0) }
func BenchmarkDense4CoreParallel(b *testing.B) { benchmarkDense4(b, 4) }

// nackHeavyProgs returns one seeded stream per core in the shape of the
// flush-heavy traffic of §3.2/§5.3: loads (a fifth of them to the other
// cores' hot lines, so probes nack the owner), stores, CBO.CLEAN bursts with
// redundant cleans of one line, CBO.FLUSH and fences. Loads queue up behind
// CBO.X and fences and replay their nacks (~1.8 per committed instruction),
// so the ROB holds 48 or more of its 64 entries in ~80% of core-cycles —
// the regime where the LSU's per-cycle work depends on how it walks the
// ROB. Dense4Core never fills the ROB with blocked loads.
func nackHeavyProgs(cores int, seed int64, n int) []*isa.Program {
	const region, hot, line = 64 << 10, 1 << 10, 64
	base := func(c int) uint64 { return uint64(c+1) << 24 }
	progs := make([]*isa.Program, cores)
	for c := range progs {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		word := func(span uint64) uint64 { return base(c) + uint64(rng.Int63n(int64(span/8)))*8 }
		cleaned := base(c)
		b := isa.NewBuilder()
		for b.Mark() < n {
			switch roll := rng.Intn(20); {
			case roll < 2:
				other := (c + 1 + rng.Intn(cores-1)) % cores
				b.Load(base(other) + uint64(rng.Int63n(hot/8))*8)
			case roll < 9:
				b.Load(word(region))
			case roll < 15:
				b.Store(word(region), rng.Uint64())
			case roll < 17:
				cleaned = word(region) &^ (line - 1)
				b.CboClean(cleaned)
			case roll < 18:
				b.CboFlush(word(region) &^ (line - 1))
			case roll < 19:
				for i := 0; i < 4; i++ {
					b.CboClean(cleaned)
				}
			default:
				b.Fence()
			}
		}
		b.Fence()
		progs[c] = b.Build()
	}
	return progs
}

// BenchmarkNackHeavy4Core is the boom-layer benchmark for that regime: a
// 4-core system, fast-forward at its default, running two rotating seeded
// nack-heavy stream sets, reporting host ns per simulated cycle.
func BenchmarkNackHeavy4Core(b *testing.B) {
	rotation := [][]*isa.Program{nackHeavyProgs(4, 1, 4000), nackHeavyProgs(4, 2, 4000)}
	s := sim.New(sim.DefaultConfig(4))
	runDense(s, rotation, len(rotation)) // warm the pools and DRAM backing store
	b.ReportAllocs()
	b.ResetTimer()
	cycles := int64(0)
	for i := 0; i < b.N; i++ {
		cycles += runDense(s, rotation, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// benchmarkRunFigure4 measures a real 4-thread Fig. 9 evaluation point end
// to end through the sweep runner, serial versus parallel.
func benchmarkRunFigure4(b *testing.B, parallel int) {
	old := Parallel
	Parallel = parallel
	defer func() { Parallel = old }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SweepOnce(nil, 1<<18, 4, true)
	}
}

func BenchmarkRunFigure4Core(b *testing.B)         { benchmarkRunFigure4(b, 0) }
func BenchmarkRunFigure4CoreParallel(b *testing.B) { benchmarkRunFigure4(b, 4) }

// BenchmarkStepParallel is BenchmarkStep with PDES stepping on (a one-core
// system shards into core+hub, so this is the smallest parallel pipeline).
// CI holds its allocs/op to the same committed baseline as BenchmarkStep:
// windowed stepping must stay allocation-free once the pools are warm.
func BenchmarkStepParallel(b *testing.B) {
	cfg := sim.DefaultConfig(1)
	cfg.Parallel = 2
	s := sim.New(cfg)
	s.SetFastForward(false)               // measure the honest per-cycle cost
	runSteadyState(s, 2*len(steadyProgs)) // warm the pool and DRAM backing store
	b.ReportAllocs()
	b.ResetTimer()
	cycles := int64(0)
	for i := 0; i < b.N; i++ {
		cycles += runSteadyState(s, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// TestStepParallelSteadyStateZeroAlloc is the zero-allocation guard with
// PDES stepping on at 4 cores: per-shard line pools and the staged mailboxes
// must keep the windowed cycle loop amortized allocation-free, same budget
// as the serial guard. (Each Run enters a fresh engine Session, so the small
// fixed per-Run cost now includes the worker goroutine launches; that is
// rounds-proportional, not cycle-proportional, and fits the same budget.)
func TestStepParallelSteadyStateZeroAlloc(t *testing.T) {
	cfg := sim.DefaultConfig(4)
	cfg.Parallel = 4
	s := sim.New(cfg)
	rotation := [][]*isa.Program{denseProgs(4, 0), denseProgs(4, 1)}
	runDense(s, rotation, 2*len(rotation)) // warm: pools, scratch slices, DRAM first-touch
	var cycles int64
	allocs := testing.AllocsPerRun(1, func() {
		cycles = runDense(s, rotation, 4)
	})
	if cycles == 0 {
		t.Fatal("workload ran no cycles")
	}
	if perKCycle := allocs / float64(cycles) * 1000; perKCycle > 2 {
		t.Fatalf("parallel steady state allocates %.0f objects over %d cycles (%.1f per kcycle)",
			allocs, cycles, perKCycle)
	}
}
