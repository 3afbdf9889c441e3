package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skipit/internal/chaos"
	"skipit/internal/ds"
	"skipit/internal/isa"
	"skipit/internal/sweep"
)

// Small-scale versions of the three workloads. Each runs through runReps
// traced, so one untraced and one traced rep must agree, and twice, so two
// runs with the same seed must agree. A planted fault must make the
// workload's check fail.

// figsSubset keeps the ablation grid and one behavioural-model point.
func figsSubset(jobs []sweep.Job) []sweep.Job {
	var out []sweep.Job
	for _, j := range jobs {
		if j.Group == "ablations" || (j.Group == "fig14" && j.Name == "hash-table/manual/skipit") {
			out = append(out, j)
		}
	}
	return out
}

// smallFigs returns figs-quick over figsSubset, with the baseline cut down
// to the same points.
func smallFigs(t *testing.T) *figsQuick {
	t.Helper()
	base, err := sweep.LoadFile(filepath.Join("..", "BENCH_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keep []sweep.Record
	for _, r := range base.Records {
		if r.Group == "ablations" || (r.Group == "fig14" && r.Name == "hash-table/manual/skipit") {
			keep = append(keep, r)
		}
	}
	return &figsQuick{baseline: keep, workers: 2, dir: t.TempDir(), jobs: figsSubset}
}

func smallPersist() *persistLookup { return newPersistLookup(7, 300) }

func smallSoc() *socCBO { return &socCBO{seed: 7, instrsPerCore: 2000} }

// runSmall runs one untraced and one traced rep of setup.
func runSmall(t *testing.T, setup setupFunc) *runResult {
	t.Helper()
	res, err := runReps(setup, 0, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.untraced) != 1 || len(res.traced) != 1 {
		t.Fatalf("got %d untraced and %d traced reps, want 1 and 1", len(res.untraced), len(res.traced))
	}
	return res
}

func TestWorkloadsAreCorrectAndDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) setupFunc
	}{
		{wlFigsQuick, func(t *testing.T) setupFunc { return smallFigs(t).setup }},
		{wlPersistLookup, func(*testing.T) setupFunc { return smallPersist().setup }},
		{wlSocCBO, func(*testing.T) setupFunc { return smallSoc().setup }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := runSmall(t, tc.setup(t))
			b := runSmall(t, tc.setup(t))
			if a.attempted == 0 || a.failed != 0 || b.failed != 0 {
				t.Fatalf("attempted %d, failed %d and %d; want no failures", a.attempted, a.failed, b.failed)
			}
			if a.digest != b.digest {
				t.Fatalf("two runs with the same seed differ: %s vs %s", a.digest, b.digest)
			}
			if len(a.lastTrace.spans) == 0 {
				t.Fatal("the traced rep recorded no spans")
			}
		})
	}
}

func TestFigsCheckCatchesPerturbedRecord(t *testing.T) {
	w := smallFigs(t)
	w.baseline[len(w.baseline)-1].Cycles++
	if res := runSmall(t, w.setup); res.failed != 2 { // one per rep
		t.Fatalf("failed = %d, want 2", res.failed)
	}
}

// flipFirstContains answers the first Contains call wrongly.
type flipFirstContains struct {
	ds.Set
	flipped bool
}

func (f *flipFirstContains) Contains(tid int, key uint64) bool {
	ok := f.Set.Contains(tid, key)
	if !f.flipped {
		f.flipped = true
		return !ok
	}
	return ok
}

func TestPersistCheckCatchesFlippedContains(t *testing.T) {
	w := smallPersist()
	setup := func(tr *tracer) (instance, error) {
		inst, err := w.setup(tr)
		if err == nil {
			c := inst.(*persistInstance).configs[0]
			c.set = &flipFirstContains{Set: c.set}
		}
		return inst, err
	}
	if res := runSmall(t, setup); res.failed != 2 {
		t.Fatalf("failed = %d, want 2", res.failed)
	}
}

func TestSocCheckCatchesCorruptExpectation(t *testing.T) {
	w := smallSoc()
	setup := func(tr *tracer) (instance, error) {
		inst, err := w.setup(tr)
		if err == nil {
			for a := range inst.(*socInstance).want[2] {
				inst.(*socInstance).want[2][a] ^= 1 << 40
				break
			}
		}
		return inst, err
	}
	if res := runSmall(t, setup); res.failed != 2 {
		t.Fatalf("failed = %d, want 2", res.failed)
	}
}

// TestSocMixMatchesChaosGenerator measures the op shares of the chaos
// fuzzer's program generator, which socMix copies, and fails when the two
// part. AMOs count as loads and CFLUSH.D.L1 as a redundant-clean burst, the
// substitutions socMix makes.
func TestSocMixMatchesChaosGenerator(t *testing.T) {
	c := chaos.DefaultCase(1, socCores)
	c.ProgLen = 25_000
	var count [6]float64 // load, store, clean, flush, burst, fence
	total := 0.0
	for _, p := range chaos.BuildInput(c).Progs {
		body := p.Instrs[:len(p.Instrs)-1] // the generator's closing fence
		for _, in := range body {
			switch in.Op {
			case isa.OpLoad, isa.OpAmoAdd, isa.OpAmoSwap:
				count[0]++
			case isa.OpStore:
				count[1]++
			case isa.OpCboClean:
				count[2]++
			case isa.OpCboFlush:
				count[3]++
			case isa.OpCflushDL1:
				count[4]++
			case isa.OpFence:
				count[5]++
			default:
				t.Fatalf("chaos generator emits %v, which socMix does not map", in.Op)
			}
		}
		total += float64(len(body))
	}
	m := socMix
	want := [6]int{m.load, m.store, m.clean, m.flush, m.burst, m.fence}
	names := [6]string{"load", "store", "clean", "flush", "burst", "fence"}
	sum := 0
	for i := range want {
		sum += want[i]
		if got := count[i] / total; math.Abs(got-float64(want[i])/20) > 0.01 {
			t.Errorf("%s: chaos generator share %.4f, socMix %d/20", names[i], got, want[i])
		}
	}
	if sum != 20 {
		t.Errorf("socMix sums to %d twentieths, want 20", sum)
	}
}

func TestTracedRepReportsEveryLayerMetric(t *testing.T) {
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.Name] = true
	}
	reported := map[string]bool{}
	for _, setup := range []setupFunc{smallFigs(t).setup, smallPersist().setup, smallSoc().setup} {
		for name := range runSmall(t, setup).perLayerMetrics() {
			if !listed[name] {
				t.Errorf("reported %q, which the catalog does not list", name)
			}
			reported[name] = true
		}
	}
	for name := range listed {
		if !reported[name] {
			t.Errorf("no workload reports %q", name)
		}
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("exit code 0 for an unknown workload")
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed %q", stdout.String())
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		section string
		json    []metric
		defs    []metricDef
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.section, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if m := c.json[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %s %s %s", c.section, i, m, d.Name, d.Unit, d.Better)
			}
		}
	}
}
