package bench

import (
	"fmt"
	"math/rand"

	"skipit/internal/ds"
	"skipit/internal/memsim"
	"skipit/internal/persist"
)

// Workload parameters for the §7.4 data-structure study. The paper runs two
// threads for 2 s wall-clock; we run a fixed operation count in virtual
// time, interleaved round-robin across the simulated threads at operation
// granularity, which keeps the coherence contention the figures depend on
// while making every run bit-reproducible — the property the sweep result
// store and regression gate are built on. Sizes follow the paper (BST with
// 10k keys, Fig. 16); the list is smaller because O(n) traversals dominate
// otherwise, as in the original FliT/NVTraverse evaluations.
var (
	PersistThreads   = 2
	PersistOpsPerThr = 20_000
	ListKeys         = uint64(512)
	HashKeys         = uint64(8192)
	TreeKeys         = uint64(10_000)
	HashBuckets      = 1024
	FliTDefaultTable = uint64(1 << 20)
)

// PolicyKind enumerates the §7.4 flush-elision schemes.
type PolicyKind int

const (
	PolicyPlain PolicyKind = iota
	PolicyFliTAdjacent
	PolicyFliTHash
	PolicyLinkAndPersist
	PolicySkipIt
	PolicyNone // non-persistent baseline (dark dotted line)
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyPlain:
		return "plain"
	case PolicyFliTAdjacent:
		return "flit-adjacent"
	case PolicyFliTHash:
		return "flit-hash"
	case PolicyLinkAndPersist:
		return "link-and-persist"
	case PolicySkipIt:
		return "skipit"
	case PolicyNone:
		return "non-persistent"
	}
	return "policy(?)"
}

// PolicyKinds lists the compared schemes in figure order.
func PolicyKinds() []PolicyKind {
	return []PolicyKind{PolicyPlain, PolicyFliTAdjacent, PolicyFliTHash, PolicyLinkAndPersist, PolicySkipIt}
}

// Structures lists the four data structures in figure order.
func Structures() []string {
	return []string{ds.NameList, ds.NameHash, ds.NameBST, ds.NameSkiplist}
}

// PersistRow is one bar of Figures 14/15: throughput of one (structure,
// persistence algorithm, elision scheme, update rate) configuration.
type PersistRow struct {
	Structure string
	Mode      persist.Mode
	Policy    PolicyKind
	UpdatePct int
	Mops      float64 // million operations per second of simulated time
	Cycles    float64 // slowest thread's virtual cycles (the gated metric)
	Flushes   uint64
	Elided    uint64 // flushes avoided (scheme-dependent accounting)
}

func (r PersistRow) String() string {
	return fmt.Sprintf("%-11s %-10s %-16s upd=%3d%%  %8.3f Mops/s", r.Structure, r.Mode, r.Policy, r.UpdatePct, r.Mops)
}

// RunPersistConfig measures one (structure, mode, policy, update%) point;
// the Fig14/Fig15/Fig16 sweeps and the cmd tools compose it.
func RunPersistConfig(structure string, mode persist.Mode, kind PolicyKind, updatePct int, flitTable uint64) PersistRow {
	return runConfig(structure, mode, kind, updatePct, flitTable)
}

// runConfig measures one configuration and returns its throughput row.
func runConfig(structure string, mode persist.Mode, kind PolicyKind, updatePct int, flitTable uint64) PersistRow {
	s := newPersistSystem(structure, mode, kind, flitTable, false)
	s.prefill()
	s.h.ResetClocks()
	return s.measure(updatePct)
}

// persistSystem is one configuration's hierarchy, policy and structure.
type persistSystem struct {
	structure string
	mode      persist.Mode
	kind      PolicyKind
	h         *memsim.Hierarchy
	alloc     *memsim.Allocator
	pol       persist.Policy
	env       *persist.Env // the structure's environment
	set       ds.Set
	keyRange  uint64
}

// newPersistSystem builds an empty structure of one configuration. With
// replay, the structure runs under a persist.Discard policy with the real
// policy's NodePad, so a prefill rebuilds the Go-side structure without
// touching the hierarchy; warmStart then swaps in the real policy.
func newPersistSystem(structure string, mode persist.Mode, kind PolicyKind, flitTable uint64, replay bool) *persistSystem {
	s := &persistSystem{
		structure: structure, mode: mode, kind: kind,
		h:     memsim.New(memsim.DefaultConfig(PersistThreads)),
		alloc: memsim.NewAllocator(1 << 20),
	}
	switch kind {
	case PolicyPlain, PolicyNone:
		s.pol = persist.NewPlain(s.h, false)
	case PolicySkipIt:
		s.pol = persist.NewSkipIt(s.h, false)
	case PolicyFliTAdjacent:
		s.pol = persist.NewFliT(s.h, true, 0, 0, false)
	case PolicyFliTHash:
		base := s.alloc.Alloc(flitTable * 8)
		s.pol = persist.NewFliT(s.h, false, flitTable, base, false)
	case PolicyLinkAndPersist:
		s.pol = persist.NewLinkAndPersist(s.h, false)
	}
	s.env = &persist.Env{Pol: s.pol, Mode: mode, NonPersistent: kind == PolicyNone}
	if replay {
		s.env.Pol = persist.Discard{Pad: s.pol.NodePad()}
	}

	switch structure {
	case ds.NameList:
		s.set = ds.NewLinkedList(s.env, s.alloc)
		s.keyRange = 2 * ListKeys
	case ds.NameHash:
		s.set = ds.NewHashTable(s.env, s.alloc, HashBuckets)
		s.keyRange = 2 * HashKeys
	case ds.NameBST:
		s.set = ds.NewBST(s.env, s.alloc)
		s.keyRange = 2 * TreeKeys
	case ds.NameSkiplist:
		s.set = ds.NewSkiplist(s.env, s.alloc)
		s.keyRange = 2 * TreeKeys
	default:
		panic("bench: unknown structure " + structure)
	}
	return s
}

// prefill inserts seeded keys to 50% occupancy of the key range, warming
// the caches.
func (s *persistSystem) prefill() {
	rng := rand.New(rand.NewSource(1))
	target := int(s.keyRange / 2)
	for n := 0; n < target; {
		if s.set.Insert(0, uint64(rng.Int63n(int64(s.keyRange)))+1) {
			n++
		}
	}
}

// measure runs the measured phase from the current (warm) state.
//
// PersistThreads simulated threads run updatePct updates split evenly
// between inserts and deletes, the rest lookups (§7.4). Each thread keeps
// its own operation stream; the streams interleave round-robin one
// operation at a time, so contention on shared lines is exercised
// deterministically instead of depending on goroutine scheduling.
func (s *persistSystem) measure(updatePct int) PersistRow {
	rngs := make([]*rand.Rand, PersistThreads)
	for tid := range rngs {
		rngs[tid] = rand.New(rand.NewSource(int64(tid)*7919 + 13))
	}
	for i := 0; i < PersistOpsPerThr; i++ {
		for tid := 0; tid < PersistThreads; tid++ {
			r := rngs[tid]
			key := uint64(r.Int63n(int64(s.keyRange))) + 1
			roll := r.Intn(200)
			switch {
			case roll < updatePct:
				s.set.Insert(tid, key)
			case roll < 2*updatePct:
				s.set.Delete(tid, key)
			default:
				s.set.Contains(tid, key)
			}
		}
	}

	secs := s.h.MaxSeconds()
	totalOps := float64(PersistThreads * PersistOpsPerThr)
	st := s.h.Stats()
	return PersistRow{
		Structure: s.structure,
		Mode:      s.mode,
		Policy:    s.kind,
		UpdatePct: updatePct,
		Mops:      totalOps / secs / 1e6,
		Cycles:    secs * s.h.Config().ClockMHz * 1e6,
		Flushes:   st.Flushes,
		Elided:    st.FlushDropsL1,
	}
}

// Fig14 regenerates Figure 14: all four structures under the three
// persistence algorithms and five elision schemes at 5% updates, plus the
// non-persistent baseline per structure.
func Fig14() []PersistRow {
	var rows []PersistRow
	for _, structure := range Structures() {
		rows = append(rows, runConfig(structure, persist.Manual, PolicyNone, 5, FliTDefaultTable))
		for _, mode := range persist.Modes() {
			for _, kind := range PolicyKinds() {
				if kind == PolicyLinkAndPersist && structure == ds.NameBST {
					// §7.4: link-and-persist cannot be applied to
					// the BST — the algorithm owns the pointer bits.
					continue
				}
				rows = append(rows, runConfig(structure, mode, kind, 5, FliTDefaultTable))
			}
		}
	}
	return rows
}

// Fig15 regenerates Figure 15: throughput across update percentages under
// the automatic persistence algorithm (the flush-heaviest, where elision
// schemes differ most).
func Fig15(updatePcts []int) []PersistRow {
	if len(updatePcts) == 0 {
		updatePcts = []int{0, 5, 10, 20, 50, 100}
	}
	var rows []PersistRow
	for _, structure := range Structures() {
		for _, kind := range PolicyKinds() {
			if kind == PolicyLinkAndPersist && structure == ds.NameBST {
				continue
			}
			for _, pct := range updatePcts {
				rows = append(rows, runConfig(structure, persist.Automatic, kind, pct, FliTDefaultTable))
			}
		}
	}
	return rows
}

// Fig16Row is one point of the FliT hash-table size sensitivity study.
type Fig16Row struct {
	TableEntries uint64
	Mops         float64
}

func (r Fig16Row) String() string {
	return fmt.Sprintf("flit-table=%8d  %8.3f Mops/s", r.TableEntries, r.Mops)
}

// Fig16 regenerates Figure 16: BST (10k keys, 5% updates, automatic) under
// FliT with hash tables from tiny (collision-dominated) to huge
// (footprint-dominated).
func Fig16(tableSizes []uint64) []Fig16Row {
	if len(tableSizes) == 0 {
		tableSizes = []uint64{1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
	}
	var rows []Fig16Row
	for _, size := range tableSizes {
		r := runConfig(ds.NameBST, persist.Automatic, PolicyFliTHash, 5, size)
		rows = append(rows, Fig16Row{TableEntries: size, Mops: r.Mops})
	}
	return rows
}
