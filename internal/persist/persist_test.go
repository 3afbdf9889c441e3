package persist

import (
	"math/rand"
	"testing"

	"skipit/internal/memsim"
)

func setup(t *testing.T) *memsim.Hierarchy {
	t.Helper()
	return memsim.New(memsim.DefaultConfig(2))
}

func policies(h *memsim.Hierarchy) []Policy {
	return []Policy{
		NewPlain(h, false),
		NewSkipIt(h, false),
		NewFliT(h, true, 0, 0, false),
		NewFliT(h, false, 1<<16, 1<<41, false),
		NewLinkAndPersist(h, false),
	}
}

func TestPolicyNames(t *testing.T) {
	h := setup(t)
	want := []string{"plain", "skipit", "flit-adjacent", "flit-hash[65536]", "link-and-persist"}
	for i, p := range policies(h) {
		if p.Name() != want[i] {
			t.Errorf("policy %d name = %q, want %q", i, p.Name(), want[i])
		}
	}
}

// The core safety property of every elision scheme: after Store(addr);
// Flush(addr); Fence(), the line must not be dirty anywhere.
func TestStoreFlushFencePersists(t *testing.T) {
	for _, mk := range []func(h *memsim.Hierarchy) Policy{
		func(h *memsim.Hierarchy) Policy { return NewPlain(h, false) },
		func(h *memsim.Hierarchy) Policy { return NewSkipIt(h, false) },
		func(h *memsim.Hierarchy) Policy { return NewFliT(h, true, 0, 0, false) },
		func(h *memsim.Hierarchy) Policy { return NewFliT(h, false, 64, 1<<41, false) },
		func(h *memsim.Hierarchy) Policy { return NewLinkAndPersist(h, false) },
	} {
		h := setup(t)
		p := mk(h)
		for i := uint64(0); i < 100; i++ {
			addr := 0x10000 + i*8
			p.Store(0, addr)
			p.Flush(0, addr)
			p.Fence(0)
			if h.DirtyAnywhere(addr) {
				t.Fatalf("%s: dirty after store+flush+fence at %#x", p.Name(), addr)
			}
		}
	}
}

// Randomized elision-safety: interleave stores and flushes from two threads;
// after flushing an address (and with no store by anyone since), the line is
// clean.
func TestElisionSafetyRandom(t *testing.T) {
	for _, name := range []string{"skipit", "flit-adjacent", "flit-hash", "lap"} {
		h := setup(t)
		var p Policy
		switch name {
		case "skipit":
			p = NewSkipIt(h, false)
		case "flit-adjacent":
			p = NewFliT(h, true, 0, 0, false)
		case "flit-hash":
			p = NewFliT(h, false, 32, 1<<41, false) // tiny table: many collisions
		case "lap":
			p = NewLinkAndPersist(h, false)
		}
		rng := rand.New(rand.NewSource(11))
		words := make([]uint64, 16)
		for i := range words {
			words[i] = 0x20000 + uint64(i)*8
		}
		for i := 0; i < 3000; i++ {
			tid := rng.Intn(2)
			w := words[rng.Intn(len(words))]
			if rng.Intn(2) == 0 {
				p.Store(tid, w)
			} else {
				p.Flush(tid, w)
			}
		}
		// Drain: flush every word; everything must be persisted.
		for _, w := range words {
			p.Flush(0, w)
		}
		p.Fence(0)
		for _, w := range words {
			if h.DirtyAnywhere(w) {
				t.Fatalf("%s: word %#x dirty after final flush pass", p.Name(), w)
			}
		}
	}
}

func TestSkipItCheaperOnRedundantFlushes(t *testing.T) {
	// The pattern that dominates §7.4's automatic mode: read a node, then
	// write it back "just in case". With plain CBO.FLUSH the line is
	// invalidated and refetched every iteration; with Skip It the flush is
	// dropped and the line stays hot.
	h := setup(t)
	plain := NewPlain(h, false)
	skip := NewSkipIt(h, false)

	plain.Store(0, 0x1000)
	plain.Flush(0, 0x1000)
	base := h.Clock(0)
	for i := 0; i < 10; i++ {
		plain.Load(0, 0x1000)
		plain.Flush(0, 0x1000)
	}
	plainCost := h.Clock(0) - base

	skip.Store(1, 0x9000)
	skip.Flush(1, 0x9000)
	skip.Load(1, 0x9000) // refetch once: installs with skip=1
	base = h.Clock(1)
	for i := 0; i < 10; i++ {
		skip.Load(1, 0x9000)
		skip.Flush(1, 0x9000)
	}
	skipCost := h.Clock(1) - base
	if skipCost*2 >= plainCost {
		t.Fatalf("Skip It read+flush loop (%.0f cy) not ~2x cheaper than plain (%.0f cy)", skipCost, plainCost)
	}
	if h.Stats().FlushDropsL1 != 10 {
		t.Fatalf("FlushDropsL1 = %d, want 10", h.Stats().FlushDropsL1)
	}
}

func TestFliTElidesFlushOfPersistedData(t *testing.T) {
	h := setup(t)
	f := NewFliT(h, true, 0, 0, false)
	f.Store(0, 0x1000) // eager flush inside
	st0 := h.Stats().Flushes
	f.Flush(1, 0x1000) // reader-side flush: counter is 0 -> elided
	if got := h.Stats().Flushes - st0; got != 0 {
		t.Fatalf("FliT issued %d flushes for persisted data, want 0", got)
	}
}

func TestFliTHashCollisionsAreConservative(t *testing.T) {
	h := setup(t)
	f := NewFliT(h, false, 1, 1<<41, false) // one counter: everything collides
	// A store in flight on one address must force flushes on another.
	f.counters[0].Add(1) // simulate a concurrent in-flight store
	st0 := h.Stats().Flushes
	f.Flush(0, 0x5000)
	if got := h.Stats().Flushes - st0; got != 1 {
		t.Fatalf("colliding FliT flush elided despite in-flight store (%d flushes)", got)
	}
	f.counters[0].Add(-1)
}

func TestLAPSkipsUnmarkedWords(t *testing.T) {
	h := setup(t)
	l := NewLinkAndPersist(h, false)
	l.Store(0, 0x1000)
	l.Flush(0, 0x1000) // clears the mark
	st0 := h.Stats().Flushes
	l.Flush(0, 0x1000)
	if got := h.Stats().Flushes - st0; got != 0 {
		t.Fatalf("LAP re-flushed an unmarked word (%d flushes)", got)
	}
}

func TestLAPChargesMaskingOnLoads(t *testing.T) {
	h := setup(t)
	l := NewLinkAndPersist(h, false)
	l.Load(0, 0x1000)
	withMask := h.Clock(0)
	h2 := setup(t)
	p := NewPlain(h2, false)
	p.Load(0, 0x1000)
	if withMask <= h2.Clock(0) {
		t.Fatal("LAP load not charged the masking cycle")
	}
}

func TestFliTAdjacentPadsNodes(t *testing.T) {
	h := setup(t)
	if NewFliT(h, true, 0, 0, false).NodePad() == 0 {
		t.Error("FliT adjacent reports zero node padding")
	}
	if NewFliT(h, false, 64, 1<<41, false).NodePad() != 0 {
		t.Error("FliT hash reports node padding")
	}
	if NewSkipIt(h, false).NodePad() != 0 {
		t.Error("Skip It reports node padding")
	}
}

func TestEnvModeFlushCounts(t *testing.T) {
	// Automatic flushes traversal reads; NVTraverse flushes only critical
	// reads and writes; manual flushes only commits/new nodes.
	counts := map[Mode]uint64{}
	for _, mode := range Modes() {
		h := setup(t)
		env := &Env{Pol: NewPlain(h, false), Mode: mode}
		for i := uint64(0); i < 10; i++ {
			env.ReadTraverse(0, 0x1000+i*64)
		}
		env.ReadCritical(0, 0x2000)
		env.Write(0, 0x3000)
		env.WriteCommit(0, 0x4000)
		env.FlushNew(0, 0x3000)
		env.EndOp(0, true)
		counts[mode] = h.Stats().Flushes
	}
	if !(counts[Automatic] > counts[NVTraverse] && counts[NVTraverse] > counts[Manual]) {
		t.Fatalf("flush ordering wrong: automatic=%d nvtraverse=%d manual=%d",
			counts[Automatic], counts[NVTraverse], counts[Manual])
	}
}

func TestNonPersistentIssuesNothing(t *testing.T) {
	h := setup(t)
	env := &Env{Pol: NewPlain(h, false), NonPersistent: true}
	env.ReadTraverse(0, 0x1000)
	env.WriteCommit(0, 0x2000)
	env.EndOp(0, true)
	st := h.Stats()
	if st.Flushes != 0 || st.Fences != 0 {
		t.Fatalf("non-persistent env issued flushes=%d fences=%d", st.Flushes, st.Fences)
	}
}

func TestEnvReadOnlyOpFences(t *testing.T) {
	h := setup(t)
	env := &Env{Pol: NewPlain(h, false), Mode: Automatic}
	env.ReadTraverse(0, 0x1000)
	env.EndOp(0, false)
	if h.Stats().Fences != 1 {
		t.Fatal("automatic mode must fence read-only operations")
	}

	h2m := setup(t)
	env2 := &Env{Pol: NewPlain(h2m, false), Mode: Manual}
	env2.ReadTraverse(0, 0x1000)
	env2.EndOp(0, false)
	if h2m.Stats().Fences != 0 {
		t.Fatal("manual mode must not fence read-only operations")
	}
}

// Link-and-persist's pending marks survive a save and restore: the restored
// policy flushes exactly the words the saved one would have.
func TestLAPStateRoundTrip(t *testing.T) {
	h := setup(t)
	l := NewLinkAndPersist(h, false)
	for i := uint64(0); i < 10; i++ {
		l.Store(0, 0x1000+i*8)
	}
	l.Flush(0, 0x1000) // clears one mark
	saved := SaveState(l)

	h2 := setup(t)
	l2 := NewLinkAndPersist(h2, false)
	RestoreState(l2, saved)
	for i := uint64(0); i < 12; i++ {
		l.Flush(1, 0x1000+i*8)
		l2.Flush(1, 0x1000+i*8)
	}
	if a, b := h.Stats().Flushes-1, h2.Stats().Flushes; a != b || b != 9 {
		t.Fatalf("restored policy issued %d flushes, original %d (want 9)", b, a)
	}
}

// FliT's counters are not saved: SaveState instead insists they are all
// zero, as they are between the operations of a single-owner run.
func TestSaveStateRejectsFliTStoreInFlight(t *testing.T) {
	f := NewFliT(setup(t), true, 0, 0, false)
	f.Store(0, 0x1000)
	SaveState(f) // every counter is back to zero
	f.counters[7].Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("SaveState with a FliT counter raised did not panic")
		}
	}()
	SaveState(f)
}
