package ds

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"skipit/internal/memsim"
	"skipit/internal/persist"
)

// newEnv returns a fresh non-persistent environment (structure logic under
// test, not flush policy). The concurrency tests drive it from goroutines,
// so its hierarchy is a shared one.
func newEnv(threads int) (*persist.Env, *memsim.Allocator) {
	h := memsim.NewShared(memsim.DefaultConfig(threads))
	return &persist.Env{Pol: persist.NewPlain(h, false), Mode: persist.Manual},
		memsim.NewAllocator(1 << 20)
}

type maker struct {
	name string
	mk   func(env *persist.Env, alloc *memsim.Allocator) Set
}

func makers() []maker {
	return []maker{
		{NameList, func(e *persist.Env, a *memsim.Allocator) Set { return NewLinkedList(e, a) }},
		{NameHash, func(e *persist.Env, a *memsim.Allocator) Set { return NewHashTable(e, a, 64) }},
		{NameBST, func(e *persist.Env, a *memsim.Allocator) Set { return NewBST(e, a) }},
		{NameSkiplist, func(e *persist.Env, a *memsim.Allocator) Set { return NewSkiplist(e, a) }},
	}
}

func TestSequentialSemantics(t *testing.T) {
	for _, m := range makers() {
		t.Run(m.name, func(t *testing.T) {
			env, alloc := newEnv(1)
			s := m.mk(env, alloc)
			if s.Contains(0, 5) {
				t.Fatal("empty set contains 5")
			}
			if !s.Insert(0, 5) {
				t.Fatal("first insert failed")
			}
			if s.Insert(0, 5) {
				t.Fatal("duplicate insert succeeded")
			}
			if !s.Contains(0, 5) {
				t.Fatal("inserted key missing")
			}
			if s.Delete(0, 6) {
				t.Fatal("deleted absent key")
			}
			if !s.Delete(0, 5) {
				t.Fatal("delete of present key failed")
			}
			if s.Contains(0, 5) {
				t.Fatal("deleted key still present")
			}
			if s.Delete(0, 5) {
				t.Fatal("double delete succeeded")
			}
		})
	}
}

func TestSequentialBulk(t *testing.T) {
	for _, m := range makers() {
		t.Run(m.name, func(t *testing.T) {
			env, alloc := newEnv(1)
			s := m.mk(env, alloc)
			rng := rand.New(rand.NewSource(3))
			ref := map[uint64]bool{}
			for i := 0; i < 4000; i++ {
				key := uint64(rng.Intn(300)) + 1
				switch rng.Intn(3) {
				case 0:
					if got, want := s.Insert(0, key), !ref[key]; got != want {
						t.Fatalf("Insert(%d) = %v, want %v", key, got, want)
					}
					ref[key] = true
				case 1:
					if got, want := s.Delete(0, key), ref[key]; got != want {
						t.Fatalf("Delete(%d) = %v, want %v", key, got, want)
					}
					delete(ref, key)
				case 2:
					if got, want := s.Contains(0, key), ref[key]; got != want {
						t.Fatalf("Contains(%d) = %v, want %v", key, got, want)
					}
				}
			}
			for key := uint64(1); key <= 300; key++ {
				if got := s.Contains(0, key); got != ref[key] {
					t.Fatalf("final Contains(%d) = %v, want %v", key, got, ref[key])
				}
			}
		})
	}
}

func TestBoundaryKeys(t *testing.T) {
	for _, m := range makers() {
		t.Run(m.name, func(t *testing.T) {
			env, alloc := newEnv(1)
			s := m.mk(env, alloc)
			for _, key := range []uint64{1, KeyMax} {
				if !s.Insert(0, key) || !s.Contains(0, key) {
					t.Fatalf("boundary key %d not usable", key)
				}
				if !s.Delete(0, key) {
					t.Fatalf("boundary key %d not deletable", key)
				}
			}
		})
	}
}

func TestKeyRangePanics(t *testing.T) {
	env, alloc := newEnv(1)
	s := NewLinkedList(env, alloc)
	for _, bad := range []uint64{0, KeyMax + 1, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key %d accepted", bad)
				}
			}()
			s.Insert(0, bad)
		}()
	}
}

// TestConcurrentToggleConsistency is the main concurrency check: successful
// inserts and deletes of a key strictly alternate (the structures linearize
// them), so per-key success counts determine final membership regardless of
// interleaving.
func TestConcurrentToggleConsistency(t *testing.T) {
	const (
		threads = 4
		keys    = 64
		opsPer  = 8000
	)
	for _, m := range makers() {
		t.Run(m.name, func(t *testing.T) {
			env, alloc := newEnv(threads)
			s := m.mk(env, alloc)
			var inserted, deleted [keys + 1]atomic.Int64
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid) * 977))
					for i := 0; i < opsPer; i++ {
						key := uint64(rng.Intn(keys)) + 1
						switch rng.Intn(3) {
						case 0:
							if s.Insert(tid, key) {
								inserted[key].Add(1)
							}
						case 1:
							if s.Delete(tid, key) {
								deleted[key].Add(1)
							}
						default:
							s.Contains(tid, key)
						}
					}
				}(tid)
			}
			wg.Wait()
			for key := uint64(1); key <= keys; key++ {
				net := inserted[key].Load() - deleted[key].Load()
				if net != 0 && net != 1 {
					t.Fatalf("key %d: %d successful inserts, %d deletes — impossible history",
						key, inserted[key].Load(), deleted[key].Load())
				}
				if got, want := s.Contains(0, key), net == 1; got != want {
					t.Fatalf("key %d: final Contains = %v, want %v", key, got, want)
				}
			}
		})
	}
}

// TestConcurrentDisjointRanges gives each thread a private key range, so
// every operation's result is deterministic even under concurrency.
func TestConcurrentDisjointRanges(t *testing.T) {
	const threads = 4
	for _, m := range makers() {
		t.Run(m.name, func(t *testing.T) {
			env, alloc := newEnv(threads)
			s := m.mk(env, alloc)
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					base := uint64(tid*10_000) + 1
					ref := map[uint64]bool{}
					rng := rand.New(rand.NewSource(int64(tid)))
					for i := 0; i < 5000; i++ {
						key := base + uint64(rng.Intn(200))
						switch rng.Intn(3) {
						case 0:
							if s.Insert(tid, key) == ref[key] {
								errs <- errAt(m.name, "insert", key)
								return
							}
							ref[key] = true
						case 1:
							if s.Delete(tid, key) != ref[key] {
								errs <- errAt(m.name, "delete", key)
								return
							}
							delete(ref, key)
						default:
							if s.Contains(tid, key) != ref[key] {
								errs <- errAt(m.name, "contains", key)
								return
							}
						}
					}
				}(tid)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

type opError struct {
	ds, op string
	key    uint64
}

func errAt(ds, op string, key uint64) error { return opError{ds, op, key} }
func (e opError) Error() string {
	return e.ds + ": concurrent " + e.op + " returned wrong result (private key range)"
}

// TestConcurrentSameKeyHammer maximizes contention: all threads fight over
// three keys, exercising helping paths (marked-node unlink, BST cleanup).
func TestConcurrentSameKeyHammer(t *testing.T) {
	const threads = 8
	for _, m := range makers() {
		t.Run(m.name, func(t *testing.T) {
			env, alloc := newEnv(threads)
			s := m.mk(env, alloc)
			var inserted, deleted [4]atomic.Int64
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid) + 31))
					for i := 0; i < 6000; i++ {
						key := uint64(rng.Intn(3)) + 1
						if rng.Intn(2) == 0 {
							if s.Insert(tid, key) {
								inserted[key].Add(1)
							}
						} else {
							if s.Delete(tid, key) {
								deleted[key].Add(1)
							}
						}
					}
				}(tid)
			}
			wg.Wait()
			for key := uint64(1); key <= 3; key++ {
				net := inserted[key].Load() - deleted[key].Load()
				if net != 0 && net != 1 {
					t.Fatalf("key %d: net %d", key, net)
				}
				if got := s.Contains(0, key); got != (net == 1) {
					t.Fatalf("key %d: Contains=%v net=%d", key, got, net)
				}
			}
		})
	}
}

func TestEveryPolicyRunsEveryStructure(t *testing.T) {
	// Smoke: all five policies drive all four structures without deadlock
	// or state corruption, across all three modes.
	h := memsim.NewShared(memsim.DefaultConfig(2))
	base := uint64(1 << 22)
	pols := []persist.Policy{
		persist.NewPlain(h, false),
		persist.NewSkipIt(h, false),
		persist.NewFliT(h, true, 0, 0, false),
		persist.NewFliT(h, false, 1<<12, 1<<41, false),
		persist.NewLinkAndPersist(h, false),
	}
	for _, pol := range pols {
		for _, mode := range persist.Modes() {
			env := &persist.Env{Pol: pol, Mode: mode}
			alloc := memsim.NewAllocator(base)
			base += 1 << 22
			for _, m := range makers() {
				s := m.mk(env, alloc)
				var wg sync.WaitGroup
				for tid := 0; tid < 2; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(tid)))
						for i := 0; i < 400; i++ {
							key := uint64(rng.Intn(40)) + 1
							switch rng.Intn(3) {
							case 0:
								s.Insert(tid, key)
							case 1:
								s.Delete(tid, key)
							default:
								s.Contains(tid, key)
							}
						}
					}(tid)
				}
				wg.Wait()
			}
		}
	}
}

func TestHashTableRejectsBadBucketCount(t *testing.T) {
	env, alloc := newEnv(1)
	for _, bad := range []int{0, -1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bucket count %d accepted", bad)
				}
			}()
			NewHashTable(env, alloc, bad)
		}()
	}
}

func TestSkiplistHeightDistribution(t *testing.T) {
	env, alloc := newEnv(1)
	s := NewSkiplist(env, alloc)
	heights := map[int]int{}
	for i := 0; i < 2000; i++ {
		heights[s.randomHeight()]++
	}
	if heights[1] < 700 || heights[1] > 1300 {
		t.Errorf("height-1 frequency %d of 2000, want ~1000 (geometric p=1/2)", heights[1])
	}
	for h := range heights {
		if h < 1 || h > skipMaxHeight {
			t.Errorf("height %d out of range", h)
		}
	}
}

// Replaying a prefill under persist.Discard rebuilds the structure the real
// prefill built: the structures never branch on what a policy does, so only
// NodePad can steer them. Same NodePad, same allocator cursor (which also
// pins the skiplist's tower heights) and same membership.
func TestDiscardReplayMatchesRealPrefill(t *testing.T) {
	for _, m := range makers() {
		for _, mkPol := range []func(h *memsim.Hierarchy) persist.Policy{
			func(h *memsim.Hierarchy) persist.Policy { return persist.NewSkipIt(h, false) },
			func(h *memsim.Hierarchy) persist.Policy { return persist.NewFliT(h, true, 0, 0, false) },
			func(h *memsim.Hierarchy) persist.Policy { return persist.NewLinkAndPersist(h, false) },
		} {
			pol := mkPol(memsim.New(memsim.DefaultConfig(1)))
			t.Run(m.name+"/"+pol.Name(), func(t *testing.T) {
				fullAlloc := memsim.NewAllocator(1 << 20)
				full := m.mk(&persist.Env{Pol: pol, Mode: persist.Automatic}, fullAlloc)
				replayAlloc := memsim.NewAllocator(1 << 20)
				replay := m.mk(&persist.Env{Pol: persist.Discard{Pad: pol.NodePad()}, Mode: persist.Automatic}, replayAlloc)
				const keyRange = 600
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < 400; i++ {
					key := uint64(rng.Intn(keyRange)) + 1
					if a, b := full.Insert(0, key), replay.Insert(0, key); a != b {
						t.Fatalf("Insert(%d) = %v under %s, %v under discard", key, a, pol.Name(), b)
					}
				}
				if a, b := fullAlloc.Cursor(), replayAlloc.Cursor(); a != b {
					t.Fatalf("allocator cursor %#x under %s, %#x under discard", a, pol.Name(), b)
				}
				for key := uint64(1); key <= keyRange; key++ {
					if a, b := full.Contains(0, key), replay.Contains(0, key); a != b {
						t.Fatalf("Contains(%d) = %v under %s, %v under discard", key, a, pol.Name(), b)
					}
				}
			})
		}
	}
}
