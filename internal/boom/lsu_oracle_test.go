package boom_test

import (
	"math/rand"
	"reflect"
	"testing"

	"skipit/internal/isa"
	"skipit/internal/sim"
)

// oracleProgram is a seeded stream that keeps the LSU rules busy: loads,
// stores and AMOs to a few words shared by every core, CBO.CLEAN/FLUSH
// bursts to the same lines, fences, and private traffic that misses the L1.
// Some stretches park a store, an AMO to the same word and loads of it
// behind a miss and a run of nops: when the miss returns, the nops keep the
// store in the ROB past the AMO's completion, so the loads see a done AMO
// younger than a same-word store (they must read the cache, not forward).
func oracleProgram(rng *rand.Rand, core, n int) *isa.Program {
	const shared = 0x10000
	private := uint64(core+1) << 20
	sharedWord := func() uint64 { return shared + uint64(rng.Intn(4))*64 + uint64(rng.Intn(2))*8 }
	b := isa.NewBuilder()
	for b.Mark() < n {
		switch roll := rng.Intn(20); {
		case roll < 6:
			b.Load(sharedWord())
		case roll < 9:
			b.Store(sharedWord(), rng.Uint64())
		case roll < 11:
			if rng.Intn(2) == 0 {
				b.AmoAdd(sharedWord(), uint64(rng.Intn(8)))
			} else {
				b.AmoSwap(sharedWord(), rng.Uint64())
			}
		case roll < 14:
			line := sharedWord() &^ 63
			for i := rng.Intn(4); i >= 0; i-- {
				b.Cbo(line, rng.Intn(3) != 0)
			}
		case roll < 15:
			b.Fence()
		case roll < 16:
			w := private + 1<<16 + uint64(rng.Intn(8))*8
			b.Load(private+uint64(rng.Intn(1<<12))*8).Nops(40).
				Store(w, rng.Uint64()).AmoAdd(w, 1).Load(w).Load(w)
		case roll < 18:
			b.Load(private + uint64(rng.Intn(1<<12))*8)
		default:
			b.Store(private+uint64(rng.Intn(1<<12))*8, rng.Uint64())
		}
	}
	b.Fence()
	return b.Build()
}

// TestLSUMatchesReference runs seeded 4-core programs twice in lockstep: on
// a sim.System stepped as usual, and on a second system whose cores tick
// with the reference issue stage, which rescans the ROB for every load.
// After every cycle each core's one-walk load classification and NextEvent
// must equal the reference rule's and the two runs' core state must match;
// at the end their per-instruction timings and counters must be identical.
func TestLSUMatchesReference(t *testing.T) {
	const cores = 4
	for seed := int64(1); seed <= 4; seed++ {
		s, ref := sim.New(sim.DefaultConfig(cores)), sim.New(sim.DefaultConfig(cores))
		for c := 0; c < cores; c++ {
			p := oracleProgram(rand.New(rand.NewSource(seed*101+int64(c))), c, 600)
			s.Cores[c].SetProgram(p)
			ref.Cores[c].SetProgram(p)
		}
		var blocked, forwarded, ready int
		for {
			if s.Now() > 2_000_000 {
				t.Fatalf("seed %d: runaway at cycle %d", seed, s.Now())
			}
			now := s.Now()
			s.Step()
			ref.Mem.Tick(now)
			ref.L2.Tick(now)
			for _, d := range ref.L1s {
				d.Tick(now)
			}
			for _, c := range ref.Cores {
				c.RefTick(now)
			}
			done := true
			for c, core := range s.Cores {
				done = done && core.Done()
				got, want := core.LoadVerdicts(), core.RefLoadVerdicts()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d core %d cycle %d: load verdicts\n got %+v\nwant %+v", seed, c, now, got, want)
				}
				for _, v := range want {
					switch {
					case v.Blocked:
						blocked++
					case v.Forwarded:
						forwarded++
					default:
						ready++
					}
				}
				if got, want := core.NextEvent(now), core.RefNextEvent(now); got != want {
					t.Fatalf("seed %d core %d cycle %d: NextEvent = %d, reference %d", seed, c, now, got, want)
				}
				if got, want := core.Debug(), ref.Cores[c].Debug(); got != want {
					t.Fatalf("seed %d core %d cycle %d: state %+v, reference %+v", seed, c, now, got, want)
				}
			}
			if done && s.Quiescent() {
				break
			}
			s.FastForward()
		}
		if blocked == 0 || forwarded == 0 || ready == 0 {
			t.Fatalf("seed %d exercised too little: %d blocked, %d forwarded, %d ready verdicts", seed, blocked, forwarded, ready)
		}
		for c, core := range s.Cores {
			if !reflect.DeepEqual(core.Timings(), ref.Cores[c].Timings()) {
				t.Fatalf("seed %d core %d: timings differ from the reference run", seed, c)
			}
		}
		got, want := s.Metrics().Snapshot(0).Counters, ref.Metrics().Snapshot(0).Counters
		delete(got, "sim.skipped_cycles")
		delete(want, "sim.skipped_cycles")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: counters differ from the reference run", seed)
		}
	}
}
