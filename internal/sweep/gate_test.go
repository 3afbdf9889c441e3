package sweep

import (
	"strings"
	"testing"

	"skipit/internal/mem"
	"skipit/internal/sim"
)

func rec(name, fp string, cycles float64) Record {
	return Record{Name: name, Fingerprint: fp, Cycles: cycles, Reps: 1}
}

func TestCompareClassifiesDeltas(t *testing.T) {
	baseline := []Record{
		rec("ok", "f", 100),
		rec("slow", "f", 100),
		rec("fast", "f", 100),
		rec("drift", "f1", 100),
		rec("gone", "f", 100),
	}
	current := []Record{
		rec("ok", "f", 105),
		rec("slow", "f", 125),
		rec("fast", "f", 70),
		rec("drift", "f2", 100),
		rec("fresh", "f", 10),
	}
	cmp := Compare(baseline, current, 10)
	want := map[string]Status{
		"ok": StatusOK, "slow": StatusRegression, "fast": StatusImproved,
		"drift": StatusMismatch, "gone": StatusMissing, "fresh": StatusNew,
	}
	got := map[string]Status{}
	for _, d := range cmp.Deltas {
		got[d.Name] = d.Status
	}
	for name, status := range want {
		if got[name] != status {
			t.Errorf("%s: got %q, want %q", name, got[name], status)
		}
	}
	if cmp.OK() {
		t.Fatal("gate passed despite a regression and a mismatch")
	}
	if cmp.Regressions != 1 || cmp.Mismatches != 1 || cmp.Improved != 1 || cmp.New != 1 || cmp.Missing != 1 {
		t.Fatalf("counts = %+v", cmp)
	}
	out := cmp.String()
	for _, frag := range []string{"REGRESSION", "MISMATCH", "slow", "+25.0%"} {
		if !strings.Contains(out, frag) {
			t.Errorf("summary missing %q:\n%s", frag, out)
		}
	}
}

func TestComparePassesWithinTolerance(t *testing.T) {
	baseline := []Record{rec("a", "f", 1000), rec("b", "f", 2000)}
	current := []Record{rec("a", "f", 1050), rec("b", "f", 1900)}
	if cmp := Compare(baseline, current, 10); !cmp.OK() {
		t.Fatalf("gate failed within tolerance: %s", cmp)
	}
	// Missing points (a gate targeting -fig subsets) never fail the gate.
	if cmp := Compare(baseline, current[:1], 10); !cmp.OK() || cmp.Missing != 1 {
		t.Fatalf("subset gating broken: %+v", cmp)
	}
}

// The acceptance check in ISSUE 2: artificially inflating a latency constant
// must fail the gate. The constant lives in the fingerprinted config, so the
// failure arrives as a fingerprint mismatch — the stored baseline no longer
// describes the measured machine.
func TestGateCatchesInflatedLatencyConstant(t *testing.T) {
	point := func(memCfg mem.Config) Record {
		cfg := sim.DefaultConfig(1)
		cfg.Mem = memCfg
		return rec("fig09/flush/size64/threads1", Fingerprint("fig9", cfg), 100)
	}
	baseline := []Record{point(mem.DefaultConfig())}
	inflated := mem.DefaultConfig()
	inflated.ReadLatency *= 3
	cmp := Compare(baseline, []Record{point(inflated)}, 10)
	if cmp.OK() || cmp.Mismatches != 1 {
		t.Fatalf("inflated latency constant passed the gate: %+v", cmp)
	}
	// And a pure behavioral slowdown (same config, more cycles) fails too.
	slower := point(mem.DefaultConfig())
	slower.Cycles = 200
	if cmp := Compare(baseline, []Record{slower}, 10); cmp.OK() || cmp.Regressions != 1 {
		t.Fatalf("2x cycle regression passed the gate: %+v", cmp)
	}
}

// Compare gates cycles and fingerprints only: derived metrics, sigma and
// repetition counts may differ without failing it. That is why CI also
// compares the quick sweep's store byte for byte against the baseline.
func TestCompareChecksOnlyCyclesAndFingerprint(t *testing.T) {
	base := Record{Name: "p", Fingerprint: "f", Cycles: 100, Sigma: 1, Reps: 5,
		Derived: map[string]float64{"flushes": 10, "mops": 2.5}}
	cur := base
	cur.Sigma, cur.Reps = 7, 3
	cur.Derived = map[string]float64{"flushes": 11}
	cmp := Compare([]Record{base}, []Record{cur}, 0)
	if !cmp.OK() || len(cmp.Deltas) != 1 || cmp.Deltas[0].Status != StatusOK {
		t.Fatalf("non-cycle fields moved the gate: %+v", cmp)
	}
}

// Records are matched by group and name: equal point names in two groups
// are two points.
func TestCompareKeysByGroup(t *testing.T) {
	in := func(group string, cycles float64) Record {
		r := rec("threads4/size64", "f", cycles)
		r.Group = group
		return r
	}
	baseline := []Record{in("fig11", 100), in("fig12", 100)}
	current := []Record{in("fig11", 100), in("fig12", 150)}
	cmp := Compare(baseline, current, 10)
	if cmp.Regressions != 1 || cmp.Missing != 0 || cmp.New != 0 {
		t.Fatalf("counts = %+v", cmp)
	}
	for _, d := range cmp.Deltas {
		want := StatusOK
		if d.Name == "fig12/threads4/size64" {
			want = StatusRegression
		}
		if d.Status != want {
			t.Errorf("%s: %q, want %q", d.Name, d.Status, want)
		}
	}
}

// The tolerance is inclusive on both sides; at tolerance 0 (the CI bench
// gate) any change in cycles is reported.
func TestCompareToleranceBoundary(t *testing.T) {
	cases := []struct {
		name    string
		cur     float64
		tol     float64
		want    Status
		wantOK  bool
		wantPct float64
	}{
		{"at-plus-tolerance", 80, 25, StatusOK, true, 25},
		{"above-tolerance", 81, 25, StatusRegression, false, 26.5625},
		{"at-minus-tolerance", 48, 25, StatusOK, true, -25},
		{"below-tolerance", 47, 25, StatusImproved, true, -26.5625},
		{"zero-tolerance-equal", 64, 0, StatusOK, true, 0},
		{"zero-tolerance-one-cycle-more", 65, 0, StatusRegression, false, 1.5625},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmp := Compare([]Record{rec("p", "f", 64)}, []Record{rec("p", "f", c.cur)}, c.tol)
			d := cmp.Deltas[0]
			if d.Status != c.want || cmp.OK() != c.wantOK || d.DeltaPct != c.wantPct {
				t.Fatalf("64 -> %v at %v%%: status %q ok %v delta %v%%, want %q %v %v%%",
					c.cur, c.tol, d.Status, cmp.OK(), d.DeltaPct, c.want, c.wantOK, c.wantPct)
			}
		})
	}
}

// The summary counts every point but lists only the rows that need a look.
func TestComparisonStringElidesOKRows(t *testing.T) {
	baseline := []Record{rec("steady", "f", 100), rec("gone", "f", 100)}
	current := []Record{rec("steady", "f", 100), rec("fresh", "f", 10)}
	out := Compare(baseline, current, 10).String()
	if !strings.HasPrefix(out, "gate: tolerance 10.0%, 3 points: 1 ok, 0 regressions, 0 mismatches, 0 improved, 1 new, 1 missing") {
		t.Fatalf("summary line:\n%s", out)
	}
	if strings.Contains(out, "steady") {
		t.Fatalf("ok row listed:\n%s", out)
	}
	for _, frag := range []string{"NEW", "fresh", "MISSING", "gone"} {
		if !strings.Contains(out, frag) {
			t.Errorf("summary missing %q:\n%s", frag, out)
		}
	}
}

// Against an empty baseline every point is new, and new points never fail
// the gate.
func TestCompareEmptyBaselineAllNew(t *testing.T) {
	cmp := Compare(nil, []Record{rec("a", "f", 1), rec("b", "f", 2)}, 0)
	if !cmp.OK() || cmp.New != 2 || len(cmp.Deltas) != 2 {
		t.Fatalf("empty baseline: %+v", cmp)
	}
}
