package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"agilepkgc/internal/scenario"
)

// TestWorkloadFilesLoad checks that every workload's generated files
// load and validate through the public scenario API, and that a seed
// always generates the same bytes.
func TestWorkloadFilesLoad(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{referenceSeed, 7} {
			dirA, dirB := t.TempDir(), t.TempDir()
			files, err := w.write(dirA, seed, 1)
			if err != nil {
				t.Fatalf("%s seed %d: write: %v", w.name, seed, err)
			}
			if _, err := w.write(dirB, seed, 1); err != nil {
				t.Fatalf("%s seed %d: second write: %v", w.name, seed, err)
			}
			for _, f := range files {
				scs, err := scenario.LoadFile(f)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				if len(scs) == 0 {
					t.Fatalf("%s seed %d: %s holds no scenario", w.name, seed, f)
				}
			}
			entries, err := os.ReadDir(dirA)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				a, errA := os.ReadFile(filepath.Join(dirA, e.Name()))
				b, errB := os.ReadFile(filepath.Join(dirB, e.Name()))
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Errorf("%s seed %d: %s differs between two writes", w.name, seed, e.Name())
				}
			}
		}
	}
}

// runPass writes and loads a workload at the given window scale and
// runs one pass of it.
func runPass(t *testing.T, name string, seed uint64, scale float64) []*scenario.Result {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	files, err := w.write(t.TempDir(), seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := loadAll(files)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, seed: seed, scale: scale, out: io.Discard}
	pass, _, err := b.pass(scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pass
}

// TestReferenceDigests runs every workload at full size on the
// reference seed and compares each point with reference.json: the
// stored digests must describe the simulator as it is.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		pass := runPass(t, w.name, referenceSeed, 1)
		got := digests(pass)
		if _, failed := checkPass(pass, got, ref[w.name]); failed != 0 {
			t.Errorf("%s: %d points differ from reference.json", w.name, failed)
		}
	}
}

// TestPerturbedResultTripsCheck shows the point check is not vacuous: a
// changed count fails the digest and conservation checks, and a
// residency outside [0, 1] fails even without stored digests.
func TestPerturbedResultTripsCheck(t *testing.T) {
	for _, name := range []string{"server-lowload", "graph-faults"} {
		pass := runPass(t, name, 3, 0.01)
		want := digests(pass)
		if _, failed := checkPass(pass, want, want); failed != 0 {
			t.Fatalf("%s: unperturbed pass fails its own check", name)
		}

		p := &pass[0].Points[0]
		p.Served++
		if _, failed := checkPass(pass, digests(pass), want); failed != 1 {
			t.Errorf("%s: one perturbed point gave %d failures, want 1", name, failed)
		}
		if len(checkPoint(&pass[0].Scenario, p)) == 0 && len(p.Tiers) == 0 {
			t.Errorf("%s: served+1 broke no conservation rule", name)
		}
		p.Served--

		p.CC0Residency = 1.5
		if _, failed := checkPass(pass, digests(pass), nil); failed != 1 {
			t.Errorf("%s: residency 1.5 gave %d failures, want 1", name, failed)
		}
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestMetricNamesMatchBenchmarkJSON runs both modes on a shrunken
// workload and checks, both ways, that the metrics printed are exactly
// the ones BENCHMARK.json declares, with the same units, and that the
// workloads match too.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range spec.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name || whys[i] != w.why {
			t.Errorf("workload %d: program has %q, BENCHMARK.json has %q", i, w.name, names)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(names), len(workloads))
	}

	for _, mode := range []struct {
		trace    bool
		declared []metricJSON
		specs    []metricSpec
	}{{false, spec.EndToEnd, endToEndMetrics}, {true, spec.PerLayer, perLayerMetrics}} {
		w, _ := lookupWorkload("graph-faults")
		b := &bench{w: w, seed: 2, seconds: 0.3, trace: mode.trace, scale: 0.01,
			dir: t.TempDir(), out: io.Discard}
		r, err := b.measure()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", mode.trace, r.Correct, r.Attempted, r.Failed)
		}
		declared := map[string]string{}
		for _, m := range mode.declared {
			declared[m.Name] = m.Unit
			got, ok := r.Metrics[m.Name]
			if !ok {
				t.Errorf("trace=%v: BENCHMARK.json declares %s, the run did not print it", mode.trace, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("trace=%v: %s printed in %s, declared in %s", mode.trace, m.Name, got.Unit, m.Unit)
			}
		}
		for name := range r.Metrics {
			if _, ok := declared[name]; !ok {
				t.Errorf("trace=%v: the run printed %s, BENCHMARK.json does not declare it", mode.trace, name)
			}
		}
		if len(mode.specs) != len(mode.declared) || !slices.EqualFunc(mode.specs, mode.declared,
			func(s metricSpec, m metricJSON) bool { return s.name == m.Name && s.better == m.Better }) {
			t.Errorf("trace=%v: metric order or direction differs from BENCHMARK.json", mode.trace)
		}
	}
}

// TestLayerOf pins the frame-to-layer mapping the profile folding uses.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"agilepkgc/internal/sim.(*Engine).Run":                                "sim",
		"agilepkgc/internal/workload/replay.(*Reader).Next":                   "replay",
		"agilepkgc/internal/experiments.SweepWith[go.shape.struct {}].func1":  "experiments",
		"agilepkgc/internal/msr.(*Monitor).Read":                              layerOther,
		"main.(*bench).pass":                                                  layerBench,
		"runtime.mallocgc":                                                    "",
		"sort.Slice[go.shape.*agilepkgc/internal/stats.Histogram]":            "",
		"encoding/json.(*encodeState).marshal":                                "",
		"agilepkgc/internal/cluster.(*memberTree[go.shape.int]).update.func2": "cluster",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
