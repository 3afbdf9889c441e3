package bench

import (
	"fmt"
	"reflect"
	"testing"

	"skipit/internal/ds"
	"skipit/internal/persist"
	"skipit/internal/sweep"
)

// persistPoint is one §7.4 configuration.
type persistPoint struct {
	structure string
	mode      persist.Mode
	kind      PolicyKind
	upd       int
}

// Sharing prefills and rows across a job list must not change one bit of
// any record, whichever job publishes a state first: every structure, mode
// and policy at two update rates, plus a duplicated point, run on one and
// two workers in both orders, must match cold RunPersistConfig rows. Every
// table entry is dropped by the time the last job using it has started.
func TestSharedPrefillsMatchColdRuns(t *testing.T) {
	small(t)
	const flitTable = 1 << 10
	var points []persistPoint
	for _, structure := range Structures() {
		for _, mode := range persist.Modes() {
			for _, kind := range append(PolicyKinds(), PolicyNone) {
				if kind == PolicyLinkAndPersist && structure == ds.NameBST {
					continue
				}
				for _, upd := range []int{5, 50} {
					points = append(points, persistPoint{structure, mode, kind, upd})
				}
			}
		}
	}
	points = append(points, points[len(points)/2])
	cold := make([]sweep.Outcome, len(points))
	for i, p := range points {
		cold[i] = persistOutcome(RunPersistConfig(p.structure, p.mode, p.kind, p.upd, flitTable))
	}

	for _, workers := range []int{1, 2} {
		for _, reversed := range []bool{false, true} {
			warm := newPrefillTable()
			jobs := make([]sweep.Job, len(points))
			for i, p := range points {
				jobs[i] = persistJob(warm, "shared", fmt.Sprint(i), "", "",
					p.structure, p.mode, p.kind, p.upd, flitTable)
			}
			if reversed {
				for i, j := 0, len(jobs)-1; i < j; i, j = i+1, j-1 {
					jobs[i], jobs[j] = jobs[j], jobs[i]
				}
			}
			results := sweep.Runner{Workers: workers}.Run(jobs)
			if err := sweep.FirstError(results); err != nil {
				t.Fatal(err)
			}
			for k, res := range results {
				i := k
				if reversed {
					i = len(points) - 1 - k
				}
				want := cold[i]
				if res.Record.Cycles != want.Cycles || !reflect.DeepEqual(res.Record.Derived, want.Derived) {
					t.Errorf("workers=%d reversed=%v %+v: shared record %v %v, cold %v %v",
						workers, reversed, points[i], res.Record.Cycles, res.Record.Derived, want.Cycles, want.Derived)
				}
			}
			if len(warm.warm) != 0 || len(warm.rows) != 0 {
				t.Errorf("workers=%d reversed=%v: %d warm states and %d rows left after every job started",
					workers, reversed, len(warm.warm), len(warm.rows))
			}
		}
	}
}

// The three ways a job can start — full prefill, replayed prefill over a
// published state, published row — each give the cold row, and the table
// publishes only what a job still to start needs.
func TestPrefillTablePaths(t *testing.T) {
	small(t)
	p := persistPoint{ds.NameHash, persist.Manual, PolicyLinkAndPersist, 20}
	warmKey := newPrefillKey(p.structure, p.mode, p.kind, FliTDefaultTable)
	rowA := persistFingerprint(p.structure, p.mode, p.kind, p.upd, FliTDefaultTable)
	rowB := persistFingerprint(p.structure, p.mode, p.kind, 0, FliTDefaultTable)
	warm := newPrefillTable()
	warm.expect(warmKey, rowA)
	warm.expect(warmKey, rowB)
	warm.expect(warmKey, rowB)
	run := func(row string, upd int) PersistRow {
		return warm.run(warmKey, row, p.structure, p.mode, p.kind, upd, FliTDefaultTable)
	}

	if got, want := run(rowA, p.upd), RunPersistConfig(p.structure, p.mode, p.kind, p.upd, FliTDefaultTable); got != want {
		t.Fatalf("full prefill: %+v, cold %+v", got, want)
	}
	if warm.warm[warmKey].v == nil {
		t.Fatal("warm state not published while two jobs still need it")
	}
	if _, ok := warm.rows[rowA]; ok {
		t.Fatal("row kept after its only job started")
	}
	want := RunPersistConfig(p.structure, p.mode, p.kind, 0, FliTDefaultTable)
	if got := run(rowB, 0); got != want {
		t.Fatalf("replayed prefill: %+v, cold %+v", got, want)
	}
	if warm.rows[rowB].v == nil {
		t.Fatal("row not published while a duplicate still needs it")
	}
	if got := run(rowB, 0); got != want {
		t.Fatalf("published row: %+v, cold %+v", got, want)
	}
	if len(warm.warm) != 0 || len(warm.rows) != 0 {
		t.Fatalf("%d warm states and %d rows left after every job started", len(warm.warm), len(warm.rows))
	}
}
