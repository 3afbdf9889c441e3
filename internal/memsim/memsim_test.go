package memsim

import (
	"sync"
	"testing"
	"testing/quick"
)

func h2() *Hierarchy { return New(DefaultConfig(2)) }

// l1Way returns the index of the way in tid's L1 holding addr's line, or -1.
func l1Way(h *Hierarchy, tid int, addr uint64) int {
	setBase, key := h.l1Slot(h.line(addr))
	return h.findL1(tid, setBase, key)
}

func TestColdMissThenHit(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, false)
	cold := h.Clock(0)
	if cold < h.cfg.Mem {
		t.Fatalf("cold miss cost %.0f < memory latency", cold)
	}
	h.Access(0, 0x1000, false)
	if hit := h.Clock(0) - cold; hit != h.cfg.L1Hit {
		t.Fatalf("hit cost %.0f, want %.0f", hit, h.cfg.L1Hit)
	}
	st := h.Stats()
	if st.MemFills != 1 || st.L1Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSameLineDifferentWordsHit(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, false)
	before := h.Clock(0)
	h.Access(0, 0x1008, false)
	if got := h.Clock(0) - before; got != h.cfg.L1Hit {
		t.Fatalf("same-line access cost %.0f, want L1 hit", got)
	}
}

func TestWriteMakesLineDirty(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	if !h.DirtyAnywhere(0x1000) {
		t.Fatal("written line not dirty")
	}
	if h.DirtyAnywhere(0x2000) {
		t.Fatal("unwritten line dirty")
	}
}

func TestCoherenceMissCostsMoreThanL2Hit(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true) // dirty in thread 0
	h.Access(1, 0x1000, false)
	remote := h.Clock(1)

	h.Access(0, 0x3000, false) // clean, shared through L2
	h.Access(1, 0x3000, false)
	sharedClean := h.Clock(1) - remote
	if remote <= sharedClean {
		t.Fatalf("dirty remote fetch (%.0f) not pricier than clean L2 hit (%.0f)", remote, sharedClean)
	}
	if h.Stats().CoherenceMisses != 1 {
		t.Fatalf("coherence misses = %d, want 1", h.Stats().CoherenceMisses)
	}
}

func TestWriteInvalidatesRemoteCopy(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, false)
	h.Access(1, 0x1000, true) // invalidates thread 0's copy
	c0 := h.Clock(0)
	h.Access(0, 0x1000, false) // must not be an L1 hit
	if cost := h.Clock(0) - c0; cost <= h.cfg.L1Hit {
		t.Fatalf("read after remote write cost %.0f; copy should have been invalidated", cost)
	}
}

func TestFlushPersistsAndSkipBit(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(0, 0x1000, true, true) // CBO.CLEAN with Skip It
	if h.DirtyAnywhere(0x1000) {
		t.Fatal("line dirty after flush")
	}
	if h.Stats().FlushWrites != 1 {
		t.Fatal("dirty flush did not write memory")
	}
	before := h.Clock(0)
	h.Flush(0, 0x1000, true, true) // redundant: dropped at L1
	if cost := h.Clock(0) - before; cost != h.cfg.CboPipeline {
		t.Fatalf("redundant flush cost %.0f, want pipeline-only %.0f", cost, h.cfg.CboPipeline)
	}
	if h.Stats().FlushDropsL1 != 1 {
		t.Fatal("redundant flush not dropped by skip bit")
	}
}

func TestFlushWithoutSkipItGoesToL2(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(0, 0x1000, true, false)
	before := h.Clock(0)
	h.Flush(0, 0x1000, true, false) // redundant: resolved at L2
	cost := h.Clock(0) - before
	if cost != h.cfg.CboPipeline+h.cfg.FlushL2 {
		t.Fatalf("redundant naive flush cost %.0f, want %.0f", cost, h.cfg.CboPipeline+h.cfg.FlushL2)
	}
	if h.Stats().FlushSkipsL2 != 1 {
		t.Fatal("redundant naive flush not counted as L2 skip")
	}
}

func TestCboFlushInvalidates(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(0, 0x1000, false, true) // CBO.FLUSH
	c := h.Clock(0)
	h.Access(0, 0x1000, false)
	if cost := h.Clock(0) - c; cost <= h.cfg.L1Hit {
		t.Fatal("flushed (invalidated) line still hit")
	}
}

func TestCleanKeepsLineResident(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(0, 0x1000, true, true)
	c := h.Clock(0)
	h.Access(0, 0x1000, false)
	if cost := h.Clock(0) - c; cost != h.cfg.L1Hit {
		t.Fatalf("re-read after clean cost %.0f, want L1 hit", cost)
	}
}

func TestRemoteDirtyFlushWritesBack(t *testing.T) {
	// §5.5: a flush by one thread must persist data dirty in another
	// thread's cache.
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(1, 0x1000, true, true)
	if h.DirtyAnywhere(0x1000) {
		t.Fatal("remote dirty data survived a flush")
	}
	if h.Stats().FlushWrites != 1 {
		t.Fatal("remote dirty flush did not reach memory")
	}
}

func TestGrantDataDirtyClearsSkip(t *testing.T) {
	// A line dirty in L2 must install with skip unset (§6.1), so a flush
	// is not incorrectly dropped.
	h := h2()
	h.Access(0, 0x1000, true)  // dirty in T0
	h.Access(1, 0x1000, false) // T1 fetch: dirty moves to L2
	// T1's copy must not claim persistence.
	before := h.Clock(1)
	h.Flush(1, 0x1000, true, true)
	cost := h.Clock(1) - before
	if cost < h.cfg.FlushMem {
		t.Fatalf("flush of L2-dirty line cost %.0f; must have written back", cost)
	}
	if h.DirtyAnywhere(0x1000) {
		t.Fatal("line still dirty after flush")
	}
}

func TestCapacityEviction(t *testing.T) {
	h := h2()
	// Touch 3x the L1 capacity; early lines must be evicted.
	capacity := uint64(h.cfg.L1Sets * h.cfg.L1Ways)
	for i := uint64(0); i < 3*capacity; i++ {
		h.Access(0, i*64, false)
	}
	c := h.Clock(0)
	h.Access(0, 0, false)
	if cost := h.Clock(0) - c; cost == h.cfg.L1Hit {
		t.Fatal("line survived 3x-capacity sweep; eviction broken")
	}
}

func TestDirtyEvictionLandsInL2(t *testing.T) {
	h := h2()
	h.Access(0, 0, true)
	// Evict line 0 from L1 with a same-set sweep (same L1 set every
	// L1Sets lines).
	stride := uint64(h.cfg.L1Sets) * 64
	for i := uint64(1); i <= uint64(h.cfg.L1Ways); i++ {
		h.Access(0, i*stride, false)
	}
	if !h.DirtyAnywhere(0) {
		t.Fatal("dirty data lost on L1 eviction")
	}
}

func TestFenceChargesCost(t *testing.T) {
	h := h2()
	h.Fence(0)
	if h.Clock(0) != h.cfg.Fence {
		t.Fatalf("fence cost %.0f", h.Clock(0))
	}
	if h.Clock(1) != 0 {
		t.Fatal("fence charged the wrong thread")
	}
}

func TestMaxSecondsUsesSlowestThread(t *testing.T) {
	h := h2()
	h.AddCycles(0, 50e6) // one virtual second at 50 MHz
	h.AddCycles(1, 25e6)
	if got := h.MaxSeconds(); got < 0.99 || got > 1.01 {
		t.Fatalf("MaxSeconds = %f, want ~1.0", got)
	}
}

func TestResetClocksKeepsCacheState(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, false)
	h.ResetClocks()
	if h.Clock(0) != 0 {
		t.Fatal("clock not reset")
	}
	h.Access(0, 0x1000, false)
	if h.Clock(0) != h.cfg.L1Hit {
		t.Fatal("cache state lost on clock reset")
	}
}

func TestAllocatorAlignmentAndNoOverlap(t *testing.T) {
	a := NewAllocator(1 << 30)
	seen := map[uint64]bool{}
	prevEnd := uint64(0)
	for i := 0; i < 1000; i++ {
		size := uint64(8 + (i%7)*8)
		addr := a.Alloc(size)
		if addr%8 != 0 {
			t.Fatalf("unaligned alloc %#x", addr)
		}
		if addr < prevEnd {
			t.Fatalf("overlapping alloc %#x < %#x", addr, prevEnd)
		}
		if size <= 64 && addr/64 != (addr+size-1)/64 {
			t.Fatalf("object at %#x size %d straddles a line", addr, size)
		}
		prevEnd = addr + size
		if seen[addr] {
			t.Fatalf("duplicate address %#x", addr)
		}
		seen[addr] = true
	}
}

func TestAllocatorConcurrent(t *testing.T) {
	a := NewAllocator(0)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint64, 0, 500)
			for i := 0; i < 500; i++ {
				local = append(local, a.Alloc(24))
			}
			mu.Lock()
			for _, addr := range local {
				if seen[addr] {
					t.Errorf("duplicate concurrent alloc %#x", addr)
				}
				seen[addr] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// Property: flush-elision safety — whenever the skip bit would drop a flush,
// the line has no dirty data anywhere.
func TestSkipDropImpliesNotDirtyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := h2()
		lines := []uint64{0, 64, 128, 4096, 8192}
		for _, op := range ops {
			tid := int(op) % 2
			addr := lines[int(op>>1)%len(lines)]
			switch (op >> 4) % 4 {
			case 0:
				h.Access(tid, addr, false)
			case 1:
				h.Access(tid, addr, true)
			case 2:
				h.Flush(tid, addr, true, true)
			case 3:
				h.Flush(tid, addr, false, true)
			}
			// Check the §6.2 predicate for every line and thread.
			for _, a := range lines {
				for t2 := 0; t2 < 2; t2++ {
					w := l1Way(h, t2, a)
					if w >= 0 && h.l1Tags[w] != 0 && !h.l1Dirty[w] && h.l1Skip[w] && h.DirtyAnywhere(a) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFourThreadCoherenceRotation(t *testing.T) {
	h := New(DefaultConfig(4))
	// Each thread in turn writes the line; every successor must pay a
	// non-hit cost (the previous owner's copy is invalidated).
	for tid := 0; tid < 4; tid++ {
		before := h.Clock(tid)
		h.Access(tid, 0x1000, true)
		if cost := h.Clock(tid) - before; tid > 0 && cost <= h.cfg.L1Hit {
			t.Fatalf("thread %d wrote a migratory line at hit cost %.0f", tid, cost)
		}
	}
	// Exactly one dirty copy exists.
	holders := 0
	for tid := 0; tid < 4; tid++ {
		if w := l1Way(h, tid, 0x1000); w >= 0 && h.l1Tags[w] != 0 {
			holders++
			if !h.l1Dirty[w] {
				t.Fatal("final owner not dirty")
			}
		}
	}
	if holders != 1 {
		t.Fatalf("%d L1 copies of a migratory write line, want 1", holders)
	}
}

func TestL2EvictionInvalidatesL1Copies(t *testing.T) {
	h := New(DefaultConfig(1))
	h.Access(0, 0, false)
	// Sweep addresses that all map to L2 set 0 until line 0 is evicted
	// from L2; inclusion requires the L1 copy to go too.
	stride := uint64(h.cfg.L2Sets) * 64
	for i := uint64(1); i <= uint64(h.cfg.L2Ways); i++ {
		h.Access(0, i*stride, false)
	}
	if w := l1Way(h, 0, 0); w >= 0 && h.l1Tags[w] != 0 {
		t.Fatal("L1 kept a line the inclusive L2 evicted")
	}
}

func TestFlushOfL1DirtyUnknownToL2(t *testing.T) {
	// Dirty data exists only in an L1 (never evicted): a flush must still
	// count as a memory writeback.
	h := New(DefaultConfig(2))
	h.Access(0, 0x4000, true)
	h.Flush(0, 0x4000, false, true)
	if h.Stats().FlushWrites != 1 {
		t.Fatalf("FlushWrites = %d, want 1", h.Stats().FlushWrites)
	}
	if h.DirtyAnywhere(0x4000) {
		t.Fatal("dirty after flush")
	}
}

// goldenStream drives h with a seeded mix of loads, stores, CBO.CLEAN and
// CBO.FLUSH with and without Skip It, fences and raw cycle charges. Its
// addresses come from four pools: a few hot lines every thread shares
// (coherence misses), 12 lines in one L1 set and 12 lines in one L2 set
// (8-way evictions, dirty-victim writebacks, inclusive invalidations), and
// lines scattered over 16 MiB (capacity misses).
func goldenStream(h *Hierarchy, seed uint64, ops int) {
	threads := uint64(h.cfg.Threads)
	l1Stride := uint64(h.cfg.L1Sets) * h.cfg.LineBytes
	l2Stride := uint64(h.cfg.L2Sets) * h.cfg.LineBytes
	s := seed
	for i := 0; i < ops; i++ {
		// splitmix64
		s += 0x9e3779b97f4a7c15
		r := s
		r = (r ^ r>>30) * 0xbf58476d1ce4e5b9
		r = (r ^ r>>27) * 0x94d049bb133111eb
		r ^= r >> 31

		tid := int(r % threads)
		var addr uint64
		switch (r >> 8) % 4 {
		case 0:
			addr = 0x10000 + (r>>16)%8*64 + (r>>24)%8*8
		case 1:
			addr = 0x200000 + (r>>16)%12*l1Stride
		case 2:
			addr = 0x400000 + (r>>16)%12*l2Stride
		default:
			addr = (r >> 16) % (1 << 24) &^ 7
		}
		switch op := (r >> 40) % 16; {
		case op < 6:
			h.Access(tid, addr, false)
		case op < 10:
			h.Access(tid, addr, true)
		case op < 13:
			h.Flush(tid, addr, r>>50&1 == 1, r>>51&1 == 1)
		case op < 14:
			h.Fence(tid)
		default:
			h.AddCycles(tid, float64((r>>44)%16)/2)
		}
	}
}

// goldenProbe lists the hot, L1-set and L2-set pool lines of goldenStream.
func goldenProbe(h *Hierarchy) []uint64 {
	l1Stride := uint64(h.cfg.L1Sets) * h.cfg.LineBytes
	l2Stride := uint64(h.cfg.L2Sets) * h.cfg.LineBytes
	var out []uint64
	for i := uint64(0); i < 8; i++ {
		out = append(out, 0x10000+i*64)
	}
	for i := uint64(0); i < 12; i++ {
		out = append(out, 0x200000+i*l1Stride, 0x400000+i*l2Stride)
	}
	return out
}

// TestGoldenStream pins the model's behaviour in both ownership modes: a
// host-side optimization must reproduce these counters, clocks and
// dirty-line count exactly, and a change to what the model simulates must
// update them deliberately.
func TestGoldenStream(t *testing.T) {
	cases := []struct {
		threads int
		stats   Stats
		clocks  []float64
		dirty   int
	}{
		{2, Stats{Accesses: 24925, L1Hits: 7137, L2Hits: 5341, MemFills: 10872, CoherenceMisses: 1575,
			Flushes: 7565, FlushDropsL1: 334, FlushSkipsL2: 4606, FlushWrites: 4226, Fences: 2550},
			[]float64{949421, 945723.5}, 17},
		{4, Stats{Accesses: 25035, L1Hits: 5029, L2Hits: 6678, MemFills: 10899, CoherenceMisses: 2429,
			Flushes: 7444, FlushDropsL1: 221, FlushSkipsL2: 4646, FlushWrites: 4164, Fences: 2509},
			[]float64{495628.5, 495246, 486641.5, 490967}, 12},
	}
	for _, c := range cases {
		for _, mk := range []struct {
			name string
			new  func(Config) *Hierarchy
		}{{"New", New}, {"NewShared", NewShared}} {
			h := mk.new(DefaultConfig(c.threads))
			goldenStream(h, uint64(c.threads)*1000+7, 40000)
			if got := h.Stats(); got != c.stats {
				t.Errorf("%s threads=%d: stats\n got %+v\nwant %+v", mk.name, c.threads, got, c.stats)
			}
			for tid, want := range c.clocks {
				if got := h.Clock(tid); got != want {
					t.Errorf("%s threads=%d: Clock(%d) = %v, want %v", mk.name, c.threads, tid, got, want)
				}
			}
			dirty := 0
			for _, a := range goldenProbe(h) {
				if h.DirtyAnywhere(a) {
					dirty++
				}
			}
			if dirty != c.dirty {
				t.Errorf("%s threads=%d: %d probe lines dirty, want %d", mk.name, c.threads, dirty, c.dirty)
			}
		}
	}
}

func TestNewRejectsNonPowerOfTwoGeometry(t *testing.T) {
	for _, bad := range []struct {
		name string
		edit func(*Config)
	}{
		{"L1Sets", func(c *Config) { c.L1Sets = 48 }},
		{"L2Sets", func(c *Config) { c.L2Sets = 1000 }},
		{"LineBytes", func(c *Config) { c.LineBytes = 96 }},
		{"L1Sets=0", func(c *Config) { c.L1Sets = 0 }},
	} {
		t.Run(bad.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			bad.edit(&cfg)
			defer func() {
				if recover() == nil {
					t.Fatalf("New accepted %+v", cfg)
				}
			}()
			New(cfg)
		})
	}
}

// TestSharedHammer drives one NewShared hierarchy from a goroutine per
// simulated thread; under -race it proves the shared contract locks every
// public method.
func TestSharedHammer(t *testing.T) {
	const threads, ops = 4, 2000
	h := NewShared(DefaultConfig(threads))
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				addr := uint64(i%64) * 64
				switch i % 8 {
				case 0, 1, 2:
					h.Access(tid, addr, false)
				case 3, 4:
					h.Access(tid, addr, true)
				case 5:
					h.Flush(tid, addr, i%16 == 5, true)
				case 6:
					h.Fence(tid)
					h.AddCycles(tid, 1)
				default:
					h.DirtyAnywhere(addr)
					h.Clock(tid)
					h.Stats()
					h.MaxSeconds()
				}
			}
		}(tid)
	}
	wg.Wait()
	st := h.Stats()
	if st.Accesses != threads*ops*5/8 || st.Flushes != threads*ops/8 || st.Fences != threads*ops/8 {
		t.Fatalf("lost operations: %+v", st)
	}
}

// A hierarchy restored from saved contents continues exactly as the one the
// contents came from does after ResetClocks: the golden stream's ops give
// the same Stats, Clocks and dirty lines on both. Two goroutines restore one
// Contents at once (the race detector checks that restoring only reads it).
func TestSaveRestoreRoundTrip(t *testing.T) {
	for _, threads := range []int{2, 4} {
		orig := New(DefaultConfig(threads))
		goldenStream(orig, uint64(threads)*1000+7, 20000)
		saved := orig.SaveContents()
		orig.ResetClocks()
		goldenStream(orig, uint64(threads)*1000+8, 20000)

		copies := []*Hierarchy{New(DefaultConfig(threads)), NewShared(DefaultConfig(threads))}
		var wg sync.WaitGroup
		for _, h := range copies {
			wg.Add(1)
			go func(h *Hierarchy) {
				defer wg.Done()
				h.AddCycles(0, 99) // Restore zeroes clocks and Stats too.
				h.RestoreContents(saved)
				goldenStream(h, uint64(threads)*1000+8, 20000)
			}(h)
		}
		wg.Wait()
		for i, h := range copies {
			if got, want := h.Stats(), orig.Stats(); got != want {
				t.Errorf("threads=%d copy %d: stats\n got %+v\nwant %+v", threads, i, got, want)
			}
			for tid := 0; tid < threads; tid++ {
				if got, want := h.Clock(tid), orig.Clock(tid); got != want {
					t.Errorf("threads=%d copy %d: Clock(%d) = %v, want %v", threads, i, tid, got, want)
				}
			}
			for _, a := range goldenProbe(h) {
				if h.DirtyAnywhere(a) != orig.DirtyAnywhere(a) {
					t.Errorf("threads=%d copy %d: DirtyAnywhere(%#x) differs", threads, i, a)
				}
			}
		}
	}
}

func TestRestoreRejectsOtherConfig(t *testing.T) {
	saved := New(DefaultConfig(2)).SaveContents()
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreContents into a 4-thread hierarchy from a 2-thread one did not panic")
		}
	}()
	New(DefaultConfig(4)).RestoreContents(saved)
}
