package bench

import (
	"sync"

	"skipit/internal/memsim"
	"skipit/internal/persist"
)

// prefillTable shares §7.4 prefills among the jobs of one job list.
//
// Many Figs 14–16 points start from the same warm state: Fig 15's update
// rates, and Fig 14's automatic point, all prefill one (structure, policy)
// identically. The first job to finish such a prefill publishes the
// simulated state it left (cache contents, policy state and allocator
// cursor), keyed on the prefill's inputs. A job that finds the state
// published rebuilds its Go structure by replaying the prefill under
// persist.Discard and restores the copy, instead of driving the prefill
// through the hierarchy. A point whose whole fingerprint repeats (each
// Fig 15 upd5 point is a Fig 14 point) reuses the published row.
//
// No job waits for another: one that finds nothing published does the work
// itself. Every path yields the same row bit for bit, so the records do not
// depend on which job publishes first. An entry is dropped once the last
// job in the list that uses it has started.
//
// A table belongs to one job list (FigureJobs makes one per call), never to
// the package: a second run of the same jobs must measure the program
// again, not reuse an earlier run's states.
type prefillTable struct {
	mu   sync.Mutex
	warm map[prefillKey]shared[warmState]
	rows map[string]shared[PersistRow]
}

// shared is one table entry: a value some job publishes, and the number of
// jobs in the list that use it and have not started yet.
type shared[T any] struct {
	pending int
	v       *T
}

// warmState is the simulated state one prefill leaves behind. The Go-side
// structure is not in it: replay rebuilds that.
type warmState struct {
	cache  *memsim.Contents
	pol    persist.State
	cursor uint64 // the allocator cursor replay must reach
}

func newPrefillTable() *prefillTable {
	return &prefillTable{
		warm: map[prefillKey]shared[warmState]{},
		rows: map[string]shared[PersistRow]{},
	}
}

// expect registers one job of the list: it starts from the prefill keyed
// warmKey and measures the point keyed rowKey.
func (t *prefillTable) expect(warmKey prefillKey, rowKey string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	expect(t.warm, warmKey)
	expect(t.rows, rowKey)
}

func expect[K comparable, T any](m map[K]shared[T], key K) {
	e := m[key]
	e.pending++
	m[key] = e
}

// take claims a starting job's use of key and returns what is published
// under it, dropping the entry if this was the last job to use it.
func take[K comparable, T any](m map[K]shared[T], key K) *T {
	e, ok := m[key]
	if !ok {
		return nil
	}
	if e.pending--; e.pending > 0 {
		m[key] = e
	} else {
		delete(m, key)
	}
	return e.v
}

// wants reports whether a job still to start needs the value under key and
// none is published yet.
func wants[K comparable, T any](t *prefillTable, m map[K]shared[T], key K) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := m[key]
	return ok && e.v == nil
}

// publish stores v under key if a job still to start needs it and none is
// published yet.
func publish[K comparable, T any](t *prefillTable, m map[K]shared[T], key K, v *T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := m[key]; ok && e.v == nil {
		e.v = v
		m[key] = e
	}
}

// run measures one §7.4 point, starting from whatever the job list has
// already published for it.
func (t *prefillTable) run(warmKey prefillKey, rowKey, structure string, mode persist.Mode, kind PolicyKind, updatePct int, flitTable uint64) PersistRow {
	t.mu.Lock()
	warm, row := take(t.warm, warmKey), take(t.rows, rowKey)
	t.mu.Unlock()
	if row != nil {
		return *row
	}

	s := newPersistSystem(structure, mode, kind, flitTable, warm != nil)
	s.prefill()
	if warm != nil {
		s.warmStart(warm)
	} else {
		s.h.ResetClocks()
		if wants(t, t.warm, warmKey) {
			publish(t, t.warm, warmKey, s.save())
		}
	}
	r := s.measure(updatePct)
	publish(t, t.rows, rowKey, &r)
	return r
}

// save copies the simulated state a prefill left in s.
func (s *persistSystem) save() *warmState {
	return &warmState{
		cache:  s.h.SaveContents(),
		pol:    persist.SaveState(s.pol),
		cursor: s.alloc.Cursor(),
	}
}

// warmStart turns s, whose structure was just rebuilt by a replayed
// prefill, into the system the full prefill would have left: the real
// policy goes in and the saved cache and policy state are restored.
func (s *persistSystem) warmStart(w *warmState) {
	if got := s.alloc.Cursor(); got != w.cursor {
		panic("bench: replayed prefill diverged: allocator cursor differs from the saved prefill's")
	}
	s.env.Pol = s.pol
	s.h.RestoreContents(w.cache)
	persist.RestoreState(s.pol, w.pol)
}
