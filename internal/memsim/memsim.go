// Package memsim is the fast behavioral memory model under the software
// persistence study (Figures 14–16). Where package sim models the SoC cycle
// by cycle, memsim models only what drives those figures' throughput
// differences: cache capacity (tag-only set-associative L1 per thread plus a
// shared L2), coherence (write-invalidate), per-line dirty/persisted state
// including the Skip It bit, and a virtual cycle clock per thread that every
// access and writeback charges.
//
// A Hierarchy has one of two ownership contracts. One from New takes no
// lock: a single goroutine owns it, as in the figure harnesses, which
// interleave the simulated threads round-robin from one goroutine. One from
// NewShared takes a mutex around every public method, so real concurrent Go
// code (the lock-free structures in internal/ds run from goroutines) may
// call it from many goroutines at once. Both run the same model body. The
// mutex serializes simulation bookkeeping, not virtual time: throughput is
// computed from the per-thread virtual clocks, so wall-clock lock
// contention never distorts results.
//
// Geometry (LineBytes, L1Sets, L2Sets) must be powers of two: set and tag
// indexing is a shift and a mask. Each cache stores its tags packed, one
// word per way holding tag+1 (0 marks an invalid way), so a set's tag scan
// reads one host cache line; dirty, skip and LRU state live in parallel
// per-way arrays.
package memsim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Config sets geometry and the cycle-cost model. The costs are calibrated
// against the cycle-accurate simulator in package sim (see EXPERIMENTS.md).
type Config struct {
	Threads   int
	L1Sets    int // per-thread L1: 64x8x64B = 32 KiB
	L1Ways    int
	L2Sets    int // shared L2: 1024x8x64B = 512 KiB
	L2Ways    int
	LineBytes uint64

	// Access costs in cycles.
	L1Hit     float64
	L2Hit     float64
	Mem       float64
	Coherence float64 // extra cost when a line is fetched from another L1

	// Writeback costs in cycles.
	CboPipeline float64 // any CBO.X traversing the pipeline to the L1
	FlushL2     float64 // CBO resolved by the L2's trivial dirty-bit skip
	FlushMem    float64 // CBO that writes the line back to memory
	Fence       float64

	// ClockMHz converts virtual cycles to seconds for throughput; the
	// paper's §7.4 platform runs at 50 MHz.
	ClockMHz float64
}

// DefaultConfig mirrors the paper's Enzian platform (§7.1): per-core 32 KiB
// L1s and a shared 512 KiB L2 at 50 MHz, with costs matching the calibrated
// cycle simulator.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:   threads,
		L1Sets:    64,
		L1Ways:    8,
		L2Sets:    1024,
		L2Ways:    8,
		LineBytes: 64,

		L1Hit:     3,
		L2Hit:     25,
		Mem:       100,
		Coherence: 15,

		// A dropped CBO.X costs the pipeline traversal alone; the
		// out-of-order core hides part of it behind neighboring loads.
		CboPipeline: 5,
		FlushL2:     30,
		FlushMem:    100,
		Fence:       20,

		ClockMHz: 50,
	}
}

// Stats counts hierarchy traffic, aggregated across threads.
type Stats struct {
	Accesses        uint64
	L1Hits          uint64
	L2Hits          uint64
	MemFills        uint64
	CoherenceMisses uint64
	Flushes         uint64 // CBO.X requests that reached the flush path
	FlushDropsL1    uint64 // dropped by the Skip It bit in L1
	FlushSkipsL2    uint64 // resolved by the L2 trivial dirty check
	FlushWrites     uint64 // writebacks that reached memory
	Fences          uint64
}

// Hierarchy is the two-level tag-only cache model: one L1 per thread and a
// shared L2. Ways are addressed by index into the per-way arrays; thread
// t's L1 occupies indices [t*l1Size, (t+1)*l1Size) of the l1 arrays.
type Hierarchy struct {
	mu  *sync.Mutex // nil unless built by NewShared
	cfg Config

	lineShift uint   // log2(LineBytes)
	l1SetBits uint   // log2(L1Sets)
	l1SetMask uint64 // L1Sets-1
	l2SetBits uint   // log2(L2Sets)
	l2SetMask uint64 // L2Sets-1
	l1Size    int    // ways in one thread's L1

	l1Tags  []uint64 // tag+1 per way; 0 = invalid
	l1Dirty []bool
	l1Skip  []bool
	l1Used  []uint64 // LRU stamp (h.tick at last touch)
	l2Tags  []uint64
	l2Dirty []bool
	l2Used  []uint64

	clocks []float64
	tick   uint64
	stats  Stats
}

// New builds a single-owner hierarchy for cfg.Threads threads. It takes no
// lock: at most one goroutine may call it at a time. It panics on a
// geometry that is not a power of two.
func New(cfg Config) *Hierarchy {
	if cfg.Threads <= 0 || cfg.L1Ways <= 0 || cfg.L2Ways <= 0 {
		panic("memsim: bad config")
	}
	h := &Hierarchy{
		cfg:       cfg,
		lineShift: log2("LineBytes", cfg.LineBytes),
		l1SetBits: log2("L1Sets", uint64(cfg.L1Sets)),
		l1SetMask: uint64(cfg.L1Sets) - 1,
		l2SetBits: log2("L2Sets", uint64(cfg.L2Sets)),
		l2SetMask: uint64(cfg.L2Sets) - 1,
		l1Size:    cfg.L1Sets * cfg.L1Ways,
	}
	l1 := cfg.Threads * h.l1Size
	h.l1Tags = make([]uint64, l1)
	h.l1Dirty = make([]bool, l1)
	h.l1Skip = make([]bool, l1)
	h.l1Used = make([]uint64, l1)
	l2 := cfg.L2Sets * cfg.L2Ways
	h.l2Tags = make([]uint64, l2)
	h.l2Dirty = make([]bool, l2)
	h.l2Used = make([]uint64, l2)
	h.clocks = make([]float64, cfg.Threads)
	return h
}

// NewShared builds a hierarchy that many goroutines may call at once:
// every public method holds one mutex. Use it only for goroutine callers;
// single-owner callers use New.
func NewShared(cfg Config) *Hierarchy {
	h := New(cfg)
	h.mu = new(sync.Mutex)
	return h
}

func log2(name string, v uint64) uint {
	if v == 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("memsim: %s = %d is not a power of two", name, v))
	}
	return uint(bits.TrailingZeros64(v))
}

// Config returns the configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

func (h *Hierarchy) line(addr uint64) uint64 { return addr >> h.lineShift }

// l1Slot returns lineNo's set offset inside one thread's L1 and its packed
// tag (tag+1).
func (h *Hierarchy) l1Slot(lineNo uint64) (setBase int, key uint64) {
	return int(lineNo&h.l1SetMask) * h.cfg.L1Ways, lineNo>>h.l1SetBits + 1
}

func (h *Hierarchy) l2Slot(lineNo uint64) (setBase int, key uint64) {
	return int(lineNo&h.l2SetMask) * h.cfg.L2Ways, lineNo>>h.l2SetBits + 1
}

// findL1 returns the index of the way in tid's L1 holding key in the set at
// setBase, or -1.
func (h *Hierarchy) findL1(tid, setBase int, key uint64) int {
	base := tid*h.l1Size + setBase
	for i, k := range h.l1Tags[base : base+h.cfg.L1Ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// findL2 returns the index of the L2 way holding lineNo, or -1.
func (h *Hierarchy) findL2(lineNo uint64) int {
	base, key := h.l2Slot(lineNo)
	for i, k := range h.l2Tags[base : base+h.cfg.L2Ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// lru returns the way to replace among the n ways at base: the first
// invalid way, else the first least recently used one.
func lru(tags, used []uint64, base, n int) int {
	tags = tags[base : base+n]
	used = used[base : base+len(tags)]
	victim, oldest := 0, ^uint64(0)
	for i, k := range tags {
		if k == 0 {
			return base + i
		}
		if u := used[i]; u < oldest {
			victim, oldest = i, u
		}
	}
	return base + victim
}

// victimL1 installs key in the set at setBase of tid's L1 and returns the
// way, evicting as needed (dirty victims move their dirty bit into L2). The
// caller sets the way's dirty, skip and LRU state.
func (h *Hierarchy) victimL1(tid int, lineNo uint64, setBase int, key uint64) int {
	v := lru(h.l1Tags, h.l1Used, tid*h.l1Size+setBase, h.cfg.L1Ways)
	if old := h.l1Tags[v]; old != 0 && h.l1Dirty[v] {
		// Victim writeback: the dirty data lands in L2 (inclusive).
		victimLine := (old-1)<<h.l1SetBits | lineNo&h.l1SetMask
		if w := h.findL2(victimLine); w >= 0 {
			h.l2Dirty[w] = true
		} else {
			// The L2 lost the line (inclusive eviction is modeled
			// lazily); treat the victim as persisted via memory.
			h.stats.FlushWrites++
		}
	}
	h.l1Tags[v] = key
	return v
}

// fillL2 ensures lineNo is resident in L2, returning its way and whether it
// missed. A dirty L2 victim is written to memory; L1 copies of the victim
// are invalidated (inclusion).
func (h *Hierarchy) fillL2(lineNo uint64) (int, bool) {
	if w := h.findL2(lineNo); w >= 0 {
		return w, false
	}
	base, key := h.l2Slot(lineNo)
	v := lru(h.l2Tags, h.l2Used, base, h.cfg.L2Ways)
	if old := h.l2Tags[v]; old != 0 {
		victimLine := (old-1)<<h.l2SetBits | lineNo&h.l2SetMask
		l1Base, l1Key := h.l1Slot(victimLine)
		for t := 0; t < h.cfg.Threads; t++ {
			if w := h.findL1(t, l1Base, l1Key); w >= 0 {
				if h.l1Dirty[w] {
					h.l2Dirty[v] = true
				}
				h.l1Tags[w] = 0
			}
		}
		if h.l2Dirty[v] {
			h.stats.FlushWrites++ // inclusive eviction writeback
		}
	}
	h.l2Tags[v] = key
	h.l2Dirty[v] = false
	return v, true
}

// Access models one 8-byte load or store by thread tid, charging its virtual
// clock and updating tag/dirty/skip state.
func (h *Hierarchy) Access(tid int, addr uint64, write bool) {
	if h.mu == nil {
		h.access(tid, addr, write)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.access(tid, addr, write)
}

func (h *Hierarchy) access(tid int, addr uint64, write bool) {
	h.tick++
	h.stats.Accesses++
	lineNo := h.line(addr)
	setBase, key := h.l1Slot(lineNo)

	own := h.findL1(tid, setBase, key)
	if own >= 0 && (!write || h.l1Dirty[own]) {
		// Read hit, or write hit on a line we already own dirty.
		h.l1Used[own] = h.tick
		h.clocks[tid] += h.cfg.L1Hit
		h.stats.L1Hits++
		return
	}

	cost := h.cfg.L1Hit
	if write {
		// Invalidate every other copy (write-invalidate coherence),
		// collecting remote dirty data into L2.
		for t := 0; t < h.cfg.Threads; t++ {
			if t == tid {
				continue
			}
			if w := h.findL1(t, setBase, key); w >= 0 {
				if h.l1Dirty[w] {
					l2, _ := h.fillL2(lineNo)
					h.l2Dirty[l2] = true
					cost += h.cfg.Coherence
				}
				h.l1Tags[w] = 0
			}
		}
	}

	if own >= 0 {
		// Write hit on a clean (possibly shared) line: an upgrade.
		h.l1Dirty[own] = true
		h.l1Used[own] = h.tick
		h.clocks[tid] += cost + h.cfg.Coherence/2
		h.stats.L1Hits++
		return
	}

	// L1 miss: find the data. A dirty copy in another L1 is the expensive
	// coherence path; otherwise L2, otherwise memory.
	var remoteDirty bool
	for t := 0; t < h.cfg.Threads; t++ {
		if t == tid {
			continue
		}
		if w := h.findL1(t, setBase, key); w >= 0 && h.l1Dirty[w] {
			remoteDirty = true
			l2, _ := h.fillL2(lineNo)
			h.l2Dirty[l2] = true
			h.l1Dirty[w] = false
			h.l1Skip[w] = false
			if write {
				h.l1Tags[w] = 0
			}
		}
	}
	l2, missed := h.fillL2(lineNo)
	h.l2Used[l2] = h.tick
	switch {
	case remoteDirty:
		cost += h.cfg.L2Hit + h.cfg.Coherence
		h.stats.CoherenceMisses++
	case missed:
		cost += h.cfg.Mem
		h.stats.MemFills++
	default:
		cost += h.cfg.L2Hit
		h.stats.L2Hits++
	}
	// GrantData vs GrantDataDirty (§6.1): the skip bit is set only when
	// the granted line is not dirty in L2.
	skip := !h.l2Dirty[l2]

	v := h.victimL1(tid, lineNo, setBase, key)
	h.l1Dirty[v] = write
	h.l1Skip[v] = skip
	h.l1Used[v] = h.tick
	h.clocks[tid] += cost
}

// Flush models one CBO.X by thread tid. With skipItHW, a hit on a clean line
// with the skip bit set is dropped at the L1 for the pipeline cost alone
// (§6.1). Otherwise the request resolves at the L2 (trivially skipped when
// nothing is dirty, §5.5) or writes the line back to memory. clean selects
// CBO.CLEAN semantics (copies survive) vs CBO.FLUSH (copies invalidated).
func (h *Hierarchy) Flush(tid int, addr uint64, clean, skipItHW bool) {
	if h.mu == nil {
		h.flush(tid, addr, clean, skipItHW)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.flush(tid, addr, clean, skipItHW)
}

func (h *Hierarchy) flush(tid int, addr uint64, clean, skipItHW bool) {
	h.tick++
	h.stats.Flushes++
	lineNo := h.line(addr)
	setBase, key := h.l1Slot(lineNo)

	if skipItHW {
		if own := h.findL1(tid, setBase, key); own >= 0 && !h.l1Dirty[own] && h.l1Skip[own] {
			h.clocks[tid] += h.cfg.CboPipeline
			h.stats.FlushDropsL1++
			return
		}
	}

	// Collect dirtiness across the hierarchy.
	dirty := false
	for t := 0; t < h.cfg.Threads; t++ {
		if w := h.findL1(t, setBase, key); w >= 0 {
			if h.l1Dirty[w] {
				dirty = true
			}
			h.l1Dirty[w] = false
			if clean {
				h.l1Skip[w] = t == tid // §6.1: the requester's ack sets its bit
			} else {
				h.l1Tags[w] = 0
			}
		}
	}
	if w := h.findL2(lineNo); w >= 0 {
		if h.l2Dirty[w] {
			dirty = true
		}
		h.l2Dirty[w] = false
		if !clean {
			h.l2Tags[w] = 0
		}
	}

	if dirty {
		h.clocks[tid] += h.cfg.CboPipeline + h.cfg.FlushMem
		h.stats.FlushWrites++
	} else {
		h.clocks[tid] += h.cfg.CboPipeline + h.cfg.FlushL2
		h.stats.FlushSkipsL2++
	}
}

// Fence charges the fence cost to tid's clock.
func (h *Hierarchy) Fence(tid int) {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	h.stats.Fences++
	h.clocks[tid] += h.cfg.Fence
}

// AddCycles charges raw compute cycles (bit masking, counter arithmetic in
// software elision schemes) to tid's clock.
func (h *Hierarchy) AddCycles(tid int, c float64) {
	if h.mu == nil {
		h.clocks[tid] += c
		return
	}
	h.mu.Lock()
	h.clocks[tid] += c
	h.mu.Unlock()
}

// DirtyAnywhere reports whether addr's line holds unpersisted data in any
// cache level — the predicate a correct flush-elision scheme must respect.
func (h *Hierarchy) DirtyAnywhere(addr uint64) bool {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	lineNo := h.line(addr)
	setBase, key := h.l1Slot(lineNo)
	for t := 0; t < h.cfg.Threads; t++ {
		if w := h.findL1(t, setBase, key); w >= 0 && h.l1Dirty[w] {
			return true
		}
	}
	if w := h.findL2(lineNo); w >= 0 && h.l2Dirty[w] {
		return true
	}
	return false
}

// Clock returns tid's virtual cycle count.
func (h *Hierarchy) Clock(tid int) float64 {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	return h.clocks[tid]
}

// MaxSeconds converts the slowest thread's clock to seconds.
func (h *Hierarchy) MaxSeconds() float64 {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	max := 0.0
	for _, c := range h.clocks {
		if c > max {
			max = c
		}
	}
	return max / (h.cfg.ClockMHz * 1e6)
}

// Stats returns aggregated counters.
func (h *Hierarchy) Stats() Stats {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	return h.stats
}

// ResetClocks zeroes the virtual clocks (e.g. after warmup) while keeping
// cache state.
func (h *Hierarchy) ResetClocks() {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	h.resetClocks()
}

func (h *Hierarchy) resetClocks() {
	for i := range h.clocks {
		h.clocks[i] = 0
	}
	h.stats = Stats{}
}

// Contents is a copy of a hierarchy's cache contents: every way's tag,
// dirty, skip and LRU state, and the LRU clock. It holds no clocks or
// Stats. A Contents never changes once saved, so many goroutines may
// restore one Contents into their own hierarchies at once.
type Contents struct {
	cfg     Config
	l1Tags  []uint64
	l1Dirty []bool
	l1Skip  []bool
	l1Used  []uint64
	l2Tags  []uint64
	l2Dirty []bool
	l2Used  []uint64
	tick    uint64
}

// SaveContents copies h's cache contents.
func (h *Hierarchy) SaveContents() *Contents {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	return &Contents{
		cfg:     h.cfg,
		l1Tags:  slices.Clone(h.l1Tags),
		l1Dirty: slices.Clone(h.l1Dirty),
		l1Skip:  slices.Clone(h.l1Skip),
		l1Used:  slices.Clone(h.l1Used),
		l2Tags:  slices.Clone(h.l2Tags),
		l2Dirty: slices.Clone(h.l2Dirty),
		l2Used:  slices.Clone(h.l2Used),
		tick:    h.tick,
	}
}

// RestoreContents replaces h's cache contents with c and, as ResetClocks
// does, zeroes the virtual clocks and Stats. From there h behaves exactly
// as the hierarchy c was saved from did after a ResetClocks. It panics if
// c was saved from a hierarchy with a different Config.
func (h *Hierarchy) RestoreContents(c *Contents) {
	if h.mu != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	if c.cfg != h.cfg {
		panic("memsim: RestoreContents from a hierarchy with a different config")
	}
	copy(h.l1Tags, c.l1Tags)
	copy(h.l1Dirty, c.l1Dirty)
	copy(h.l1Skip, c.l1Skip)
	copy(h.l1Used, c.l1Used)
	copy(h.l2Tags, c.l2Tags)
	copy(h.l2Dirty, c.l2Dirty)
	copy(h.l2Used, c.l2Used)
	h.tick = c.tick
	h.resetClocks()
}

func (h *Hierarchy) String() string {
	return fmt.Sprintf("memsim.Hierarchy{threads=%d l1=%dKiB l2=%dKiB}",
		h.cfg.Threads,
		h.cfg.L1Sets*h.cfg.L1Ways*int(h.cfg.LineBytes)/1024,
		h.cfg.L2Sets*h.cfg.L2Ways*int(h.cfg.LineBytes)/1024)
}
