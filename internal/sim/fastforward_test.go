package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"skipit/internal/isa"
)

// ffWorkload is a two-core workload with enough idle windows (DRAM misses,
// flush round-trips, a long nop stretch) for the fast-forward clock to bite.
func ffWorkload() []*isa.Program {
	p0 := isa.NewBuilder().
		Store(0x1000, 7).Store(0x2000, 8).CboClean(0x1000).
		Nops(200).
		Load(0x3000).Store(0x3000, 9).CboFlush(0x3000).
		Load(0x1000).Fence().Build()
	p1 := isa.NewBuilder().
		Load(0x101000).Nops(150).Store(0x101000, 4).
		CboClean(0x101000).Load(0x102000).Fence().Build()
	return []*isa.Program{p0, p1}
}

// nackHeavyWorkload is a seeded 4-core mix that keeps the ROB full of
// waiting loads and replays nacks: loads, stores and AMOs to a few words
// every core shares, CBO.CLEAN/FLUSH bursts to their lines, fences, and
// private misses.
func nackHeavyWorkload(seed int64) []*isa.Program {
	const shared = 0x40000
	progs := make([]*isa.Program, 4)
	for c := range progs {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		private := uint64(c+1) << 22
		word := func() uint64 { return shared + uint64(rng.Intn(6))*64 + uint64(rng.Intn(2))*8 }
		b := isa.NewBuilder()
		for b.Mark() < 1500 {
			switch roll := rng.Intn(20); {
			case roll < 7:
				b.Load(word())
			case roll < 9:
				b.Store(word(), rng.Uint64())
			case roll < 10:
				b.AmoAdd(word(), uint64(rng.Intn(16)))
			case roll < 11:
				b.AmoSwap(word(), rng.Uint64())
			case roll < 13:
				line := word() &^ 63
				for i := rng.Intn(3); i >= 0; i-- {
					b.Cbo(line, rng.Intn(3) != 0)
				}
			case roll < 14:
				b.Fence()
			case roll < 18:
				b.Load(private + uint64(rng.Intn(1<<13))*8)
			default:
				b.Store(private+uint64(rng.Intn(1<<13))*8, rng.Uint64())
			}
		}
		b.Fence()
		progs[c] = b.Build()
	}
	return progs
}

// runWorkload runs progs, one per core, on a fresh system with the given
// clock mode and returns the system and its finish cycle.
func runWorkload(t *testing.T, progs []*isa.Program, fastForward bool, sampleEvery int64) (*System, int64) {
	t.Helper()
	s := New(DefaultConfig(len(progs)))
	s.SetFastForward(fastForward)
	if sampleEvery > 0 {
		s.EnableSampling(sampleEvery)
	}
	cycle, err := s.Run(progs, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return s, cycle
}

// TestFastForwardEquivalence: every observable — finish cycle, final clock,
// every counter, every sampled series point — must be identical with the
// next-event clock on and off. Only sim.skipped_cycles (the clock's own
// odometer) may differ. The idle-heavy workload exercises long skips; the
// nack-heavy ones keep the ROB full of loads waiting behind fences, AMOs
// and CBO.X, where the cores' NextEvent judges each waiting load.
func TestFastForwardEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		progs []*isa.Program
		nacks bool // the workload must replay data-cache nacks
	}{
		{"idle-heavy", ffWorkload(), false},
		{"nack-heavy-1", nackHeavyWorkload(1), true},
		{"nack-heavy-2", nackHeavyWorkload(2), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sFF, cycFF := runWorkload(t, tc.progs, true, 100)
			sSlow, cycSlow := runWorkload(t, tc.progs, false, 100)

			if cycFF != cycSlow {
				t.Fatalf("finish cycle differs: ff=%d slow=%d", cycFF, cycSlow)
			}
			if sFF.Now() != sSlow.Now() {
				t.Fatalf("clock differs: ff=%d slow=%d", sFF.Now(), sSlow.Now())
			}
			if sSlow.SkippedCycles() != 0 {
				t.Fatalf("slow clock skipped %d cycles", sSlow.SkippedCycles())
			}
			if sFF.SkippedCycles() == 0 {
				t.Fatal("fast-forward clock skipped nothing")
			}

			snapFF, snapSlow := sFF.Snapshot(), sSlow.Snapshot()
			if tc.nacks && snapFF.Counters["core.nack_retries"] == 0 {
				t.Fatal("workload replayed no nacks")
			}
			delete(snapFF.Counters, "sim.skipped_cycles")
			delete(snapSlow.Counters, "sim.skipped_cycles")
			if !reflect.DeepEqual(snapFF.Counters, snapSlow.Counters) {
				for k, v := range snapFF.Counters {
					if w := snapSlow.Counters[k]; v != w {
						t.Errorf("counter %s: ff=%d slow=%d", k, v, w)
					}
				}
				t.Fatal("counters diverged")
			}
			// Per-core timings (cycle-stamped per instruction) must match exactly.
			for i := range sFF.Cores {
				if !reflect.DeepEqual(sFF.Cores[i].Timings(), sSlow.Cores[i].Timings()) {
					t.Fatalf("core %d timings diverged", i)
				}
			}
			// The sampler must have fired at the same boundaries with the same
			// values, except for the skipped-cycles odometer's own series.
			ser := func(s *System) map[string][]uint64 {
				out := map[string][]uint64{}
				for _, sr := range s.Snapshot().Series {
					if sr.Key == "sim.skipped_cycles" {
						continue
					}
					out[sr.Key] = sr.Values
				}
				return out
			}
			if !reflect.DeepEqual(ser(sFF), ser(sSlow)) {
				t.Fatal("sampled series diverged")
			}
		})
	}
}

// TestFastForwardClamps unit-tests each clamp in FastForward directly.
func TestFastForwardClamps(t *testing.T) {
	t.Run("fully idle no clamps", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.Step() // establish now=1 with components ticked at 0
		if skipped := s.FastForward(); skipped != 0 {
			t.Fatalf("idle system with no clamp skipped %d cycles", skipped)
		}
		if s.Now() != 1 {
			t.Fatalf("clock moved to %d", s.Now())
		}
	})
	t.Run("caller limit", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.Step()
		if skipped := s.FastForward(500); skipped != 499 {
			t.Fatalf("skipped %d cycles, want 499", skipped)
		}
		if s.Now() != 500 {
			t.Fatalf("clock at %d, want 500", s.Now())
		}
	})
	t.Run("sampler boundary", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.EnableSampling(64)
		s.Step()
		s.FastForward(1000)
		if s.Now() != 64 {
			t.Fatalf("clock at %d, want sampler boundary 64", s.Now())
		}
	})
	t.Run("watchdog trip cycle", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.ArmWatchdog(100) // wdLastChange = 0 → first tripping ticked cycle is 99
		s.Step()
		s.FastForward(10_000)
		if s.Now() != 99 {
			t.Fatalf("clock at %d, want watchdog trip cycle 99", s.Now())
		}
		// Ticking that cycle must trip the watchdog, exactly as if every
		// cycle in between had been stepped.
		err := s.StepGuarded()
		if err == nil {
			t.Fatal("watchdog did not trip")
		}
		he, ok := err.(*HangError)
		if !ok {
			t.Fatalf("unexpected error type %T: %v", err, err)
		}
		if he.Report.Cycle != 100 || he.Report.Window != 100 {
			t.Fatalf("trip at cycle %d window %d, want cycle 100 window 100",
				he.Report.Cycle, he.Report.Window)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.SetFastForward(false)
		s.Step()
		if skipped := s.FastForward(500); skipped != 0 {
			t.Fatalf("disabled clock skipped %d cycles", skipped)
		}
	})
}

// TestFastForwardNeverSkipsArmedEvents drives the full matrix of armed
// observation points on a real workload: sampler series, watchdog bookkeeping
// and run results must be identical whether idle windows are stepped or
// skipped, even with the watchdog armed tightly enough to matter.
func TestFastForwardNeverSkipsArmedEvents(t *testing.T) {
	run := func(ff bool) (*System, int64) {
		s := New(DefaultConfig(2))
		s.SetFastForward(ff)
		s.EnableSampling(50)
		s.ArmWatchdog(5_000)
		for i, p := range ffWorkload() {
			s.Cores[i].SetProgram(p)
		}
		allDone := func() bool {
			for _, c := range s.Cores {
				if !c.Done() {
					return false
				}
			}
			return true
		}
		for {
			if allDone() && s.Quiescent() {
				break
			}
			if s.Now() > 1_000_000 {
				t.Fatal("runaway")
			}
			if err := s.StepGuarded(); err != nil {
				t.Fatal(err)
			}
			// Re-check before fast-forwarding: a freshly terminal SoC has no
			// next event, and the sampler clamp would otherwise overshoot the
			// exit cycle.
			if allDone() && s.Quiescent() {
				break
			}
			s.FastForward()
		}
		return s, s.Now()
	}
	sFF, nFF := run(true)
	sSlow, nSlow := run(false)
	if nFF != nSlow {
		t.Fatalf("final cycle differs: ff=%d slow=%d", nFF, nSlow)
	}
	snapFF, snapSlow := sFF.Snapshot(), sSlow.Snapshot()
	delete(snapFF.Counters, "sim.skipped_cycles")
	delete(snapSlow.Counters, "sim.skipped_cycles")
	if !reflect.DeepEqual(snapFF.Counters, snapSlow.Counters) {
		t.Fatal("counters diverged under armed watchdog + sampler")
	}
}
