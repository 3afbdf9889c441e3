package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"skipit/internal/bench"
	"skipit/internal/ds"
	"skipit/internal/memsim"
	"skipit/internal/persist"
)

// persistLookup is the persist-lookup workload: seeded operation streams
// over all four ds structures at the figures' key counts, in manual mode
// under the plain and skipit policies plus the non-persistent baseline.
// Updates are 5%, split evenly between inserts and deletes, and the two
// simulated threads' streams interleave round-robin one operation at a
// time, as the figure harness does.
type persistLookup struct {
	streams []*opStream // one per structure, shared by its three policies
}

// persistUpdatePct is the update share of each operation stream.
const persistUpdatePct = 5

// persistKinds are the policy configurations each structure runs under.
var persistKinds = []bench.PolicyKind{bench.PolicyPlain, bench.PolicySkipIt, bench.PolicyNone}

type opKind uint8

const (
	opContains opKind = iota
	opInsert
	opDelete
)

type op struct {
	kind opKind
	tid  int
	key  uint64
}

// opStream is one structure's generated input and the answers a Go map
// gives when it replays the same operations in the same order.
type opStream struct {
	structure   string
	prefill     []uint64 // keys inserted by thread 0 until half the key range is present
	prefillWant []bool
	ops         []op // the threads' streams, already interleaved
	want        []bool
}

// newPersistLookup generates the operation streams for seed, opsPerThread
// operations per simulated thread.
func newPersistLookup(seed int64, opsPerThread int) *persistLookup {
	w := &persistLookup{}
	for si, structure := range bench.Structures() {
		var keys uint64
		switch structure {
		case ds.NameList:
			keys = bench.ListKeys
		case ds.NameHash:
			keys = bench.HashKeys
		default:
			keys = bench.TreeKeys
		}
		keyRange := int64(2 * keys)
		s := &opStream{structure: structure}
		present := map[uint64]bool{}
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(si)))
		for uint64(len(present)) < keys {
			k := uint64(rng.Int63n(keyRange)) + 1
			s.prefill = append(s.prefill, k)
			s.prefillWant = append(s.prefillWant, !present[k])
			present[k] = true
		}
		rngs := make([]*rand.Rand, bench.PersistThreads)
		for tid := range rngs {
			rngs[tid] = rand.New(rand.NewSource(seed*1_000_003 + int64(100*(si+1)+tid)))
		}
		for i := 0; i < opsPerThread; i++ {
			for tid, r := range rngs {
				o := op{tid: tid, key: uint64(r.Int63n(keyRange)) + 1}
				switch roll := r.Intn(200); {
				case roll < persistUpdatePct:
					o.kind = opInsert
					s.want = append(s.want, !present[o.key])
					present[o.key] = true
				case roll < 2*persistUpdatePct:
					o.kind = opDelete
					s.want = append(s.want, present[o.key])
					delete(present, o.key)
				default:
					s.want = append(s.want, present[o.key])
				}
				s.ops = append(s.ops, o)
			}
		}
		w.streams = append(w.streams, s)
	}
	return w
}

// persistConfig is one (structure, policy) point with its own hierarchy.
type persistConfig struct {
	stream    *opStream
	kind      bench.PolicyKind
	h         *memsim.Hierarchy
	env       *persist.Env
	set       ds.Set
	prefilled []bool
	got       []bool
	// Set by a traced rep.
	pol *countingPolicy
}

type persistInstance struct {
	configs []*persistConfig
	prefill time.Duration
}

// setup builds every structure and prefills it; clocks and counters are
// reset afterwards so the measured phase starts from warm caches.
func (w *persistLookup) setup(tr *tracer) (instance, error) {
	p := &persistInstance{}
	t0 := time.Now()
	for _, s := range w.streams {
		for _, kind := range persistKinds {
			c := &persistConfig{stream: s, kind: kind}
			id := -1
			if tr != nil {
				id = tr.begin("prefill "+s.structure+"/"+kind.String(), -1)
			}
			c.h = memsim.New(memsim.DefaultConfig(bench.PersistThreads))
			alloc := memsim.NewAllocator(1 << 20)
			var pol persist.Policy = persist.NewPlain(c.h, false)
			if kind == bench.PolicySkipIt {
				pol = persist.NewSkipIt(c.h, false)
			}
			c.env = &persist.Env{Pol: pol, Mode: persist.Manual, NonPersistent: kind == bench.PolicyNone}
			switch s.structure {
			case ds.NameList:
				c.set = ds.NewLinkedList(c.env, alloc)
			case ds.NameHash:
				c.set = ds.NewHashTable(c.env, alloc, bench.HashBuckets)
			case ds.NameBST:
				c.set = ds.NewBST(c.env, alloc)
			case ds.NameSkiplist:
				c.set = ds.NewSkiplist(c.env, alloc)
			default:
				return nil, fmt.Errorf("unknown structure %q", s.structure)
			}
			c.prefilled = make([]bool, len(s.prefill))
			for i, k := range s.prefill {
				c.prefilled[i] = c.set.Insert(0, k)
			}
			c.h.ResetClocks()
			c.got = make([]bool, len(s.ops))
			if tr != nil {
				tr.end(id, 0)
			}
			p.configs = append(p.configs, c)
		}
	}
	p.prefill = time.Since(t0)
	return p, nil
}

func (p *persistInstance) measure(tr *tracer) error {
	for _, c := range p.configs {
		if tr == nil {
			c.run(c.set)
			continue
		}
		// The policy wrapper goes in after the prefill, so set-up stays
		// untraced; the structures read env.Pol on every call.
		c.pol = &countingPolicy{Policy: c.env.Pol}
		c.env.Pol = c.pol
		root := tr.begin(c.stream.structure+"/"+c.kind.String(), -1)
		c.run(&tracedSet{Set: c.set, tr: tr, parent: root, pol: c.pol})
		tr.end(root, 0)
	}
	return nil
}

// run applies the interleaved operation stream to set, recording answers.
func (c *persistConfig) run(set ds.Set) {
	for i, o := range c.stream.ops {
		switch o.kind {
		case opInsert:
			c.got[i] = set.Insert(o.tid, o.key)
		case opDelete:
			c.got[i] = set.Delete(o.tid, o.key)
		default:
			c.got[i] = set.Contains(o.tid, o.key)
		}
	}
}

// check compares every Insert, Delete and Contains answer, prefill included,
// with the Go-map replay of the same stream.
func (p *persistInstance) check() (attempted, failed int, err error) {
	for _, c := range p.configs {
		for i, ok := range c.prefilled {
			if ok != c.stream.prefillWant[i] {
				failed++
			}
		}
		for i, ok := range c.got {
			if ok != c.stream.want[i] {
				failed++
			}
		}
		attempted += len(c.prefilled) + len(c.got)
	}
	return attempted, failed, nil
}

// persistOutput is one configuration's deterministic result: the hierarchy's
// counters and every simulated thread's virtual clock, exactly as stored.
type persistOutput struct {
	Config string
	Stats  memsim.Stats
	Clocks []float64
}

func (p *persistInstance) outputs() any {
	out := make([]persistOutput, len(p.configs))
	for i, c := range p.configs {
		out[i] = persistOutput{Config: c.stream.structure + "/" + c.kind.String(), Stats: c.h.Stats()}
		for tid := 0; tid < bench.PersistThreads; tid++ {
			out[i].Clocks = append(out[i].Clocks, c.h.Clock(tid))
		}
	}
	return out
}

func (p *persistInstance) work() (ops, simCycles float64) {
	for _, c := range p.configs {
		ops += float64(len(c.got))
		slowest := 0.0
		for tid := 0; tid < bench.PersistThreads; tid++ {
			slowest = max(slowest, c.h.Clock(tid))
		}
		simCycles += slowest
	}
	return ops, simCycles
}

func (p *persistInstance) layers(tr *tracer) map[string]float64 {
	var contains, updates []int64
	var opNs, childNs int64
	tr.each(func(s *span) {
		if s.Parent < 0 || !strings.HasPrefix(s.Name, "ds.") {
			return
		}
		opNs += s.dur()
		childNs += s.ChildNs
		if s.Name == "ds.Contains" {
			contains = append(contains, s.dur())
		} else {
			updates = append(updates, s.dur())
		}
	})
	var st memsim.Stats
	var calls [4]uint64
	var plainNs, plainAccesses float64
	for _, c := range p.configs {
		cs := c.h.Stats()
		st.Accesses += cs.Accesses
		st.L1Hits += cs.L1Hits
		st.MemFills += cs.MemFills
		st.CoherenceMisses += cs.CoherenceMisses
		st.Flushes += cs.Flushes
		st.FlushDropsL1 += cs.FlushDropsL1
		for i, n := range c.pol.calls {
			calls[i] += n
		}
		// The plain policy and the non-persistent baseline pass every
		// call straight to memsim, so their call time is memsim's.
		if c.kind != bench.PolicySkipIt {
			plainNs += float64(c.pol.ns)
			plainAccesses += float64(cs.Accesses)
		}
	}
	return map[string]float64{
		"ds.contains_ns_p50":      percentile(contains, 50),
		"ds.contains_ns_p99":      percentile(contains, 99),
		"ds.update_ns_p50":        percentile(updates, 50),
		"ds.self_share":           ratio(float64(opNs-childNs), float64(opNs)),
		"ds.prefill_s":            p.prefill.Seconds(),
		"persist.load_calls":      float64(calls[callLoad]),
		"persist.store_calls":     float64(calls[callStore]),
		"persist.flush_calls":     float64(calls[callFlush]),
		"persist.fence_calls":     float64(calls[callFence]),
		"persist.call_share":      ratio(float64(childNs), float64(opNs)),
		"memsim.accesses":         float64(st.Accesses),
		"memsim.l1_hit_ratio":     ratio(float64(st.L1Hits), float64(st.Accesses)),
		"memsim.mem_fills":        float64(st.MemFills),
		"memsim.coherence_misses": float64(st.CoherenceMisses),
		"memsim.flushes":          float64(st.Flushes),
		"memsim.flush_drop_ratio": ratio(float64(st.FlushDropsL1), float64(st.Flushes)),
		"memsim.ns_per_access":    ratio(plainNs, plainAccesses),
	}
}

func (p *persistInstance) close() error { return nil }

// Policy call kinds, as indexes into countingPolicy.calls.
const (
	callLoad = iota
	callStore
	callFlush
	callFence
)

// countingPolicy delegates every persist.Policy method, counting the calls
// and timing them in aggregate: one span per call would hold tens of
// millions of spans, so the time goes to the enclosing ds span instead.
type countingPolicy struct {
	persist.Policy
	calls [4]uint64
	ns    int64 // total time inside the wrapped calls
	open  int64 // time inside calls since the last take
}

func (c *countingPolicy) timed(kind int, t0 time.Time) {
	d := int64(time.Since(t0))
	c.calls[kind]++
	c.ns += d
	c.open += d
}

// take returns the call time accumulated since the previous take.
func (c *countingPolicy) take() int64 {
	d := c.open
	c.open = 0
	return d
}

func (c *countingPolicy) Load(tid int, addr uint64) {
	t0 := time.Now()
	c.Policy.Load(tid, addr)
	c.timed(callLoad, t0)
}

func (c *countingPolicy) Store(tid int, addr uint64) {
	t0 := time.Now()
	c.Policy.Store(tid, addr)
	c.timed(callStore, t0)
}

func (c *countingPolicy) Flush(tid int, addr uint64) {
	t0 := time.Now()
	c.Policy.Flush(tid, addr)
	c.timed(callFlush, t0)
}

func (c *countingPolicy) Fence(tid int) {
	t0 := time.Now()
	c.Policy.Fence(tid)
	c.timed(callFence, t0)
}

// tracedSet records one span per ds.Set call, charging it the policy time
// spent inside the call.
type tracedSet struct {
	ds.Set
	tr     *tracer
	parent int
	pol    *countingPolicy
}

func (s *tracedSet) Insert(tid int, key uint64) bool {
	s.pol.take()
	id := s.tr.begin("ds.Insert", s.parent)
	ok := s.Set.Insert(tid, key)
	s.tr.end(id, s.pol.take())
	return ok
}

func (s *tracedSet) Delete(tid int, key uint64) bool {
	s.pol.take()
	id := s.tr.begin("ds.Delete", s.parent)
	ok := s.Set.Delete(tid, key)
	s.tr.end(id, s.pol.take())
	return ok
}

func (s *tracedSet) Contains(tid int, key uint64) bool {
	s.pol.take()
	id := s.tr.begin("ds.Contains", s.parent)
	ok := s.Set.Contains(tid, key)
	s.tr.end(id, s.pol.take())
	return ok
}
