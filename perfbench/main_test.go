package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny runs a workload at a scale small enough for a unit test.
func tiny(t *testing.T, workload string, traced, inject bool) result {
	t.Helper()
	res, err := run(options{
		workload: workload,
		seed:     3,
		window:   200 * time.Millisecond,
		traced:   traced,
		root:     "..",
		out:      t.TempDir(),
		inject:   inject,
		sizes: sizes{
			replayScale: 0.01,
			matrixScale: 0.002,
			warmScale:   0.002,
			coldScale:   0.002,
			checkJobs:   3,
			setupReps:   2,
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// exact reports whether a per-layer metric is a simulated count or model
// output, which must repeat exactly for a given seed.
func exact(name string) bool {
	for _, p := range []string{"sim.events", "sim.far_ratio", "trace.entries", "core.l2_", "cpu.", "coherence.",
		"cache.", "mem.", "decay.", "thermal.samples", "model."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			check := func(res result, defs []def, nonZero bool) {
				t.Helper()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.name, m.Value)
					case nonZero && m.Value <= 0:
						t.Errorf("%s = %v, want > 0", d.name, m.Value)
					}
				}
			}
			check(tiny(t, w, false, false), endToEnd, true)

			a, b := tiny(t, w, true, false), tiny(t, w, true, false)
			check(a, perLayer, false)
			if a.Metrics["cpu.instructions"].Value == 0 || a.Metrics["model.sim_cycles"].Value == 0 {
				t.Errorf("traced run reports no simulated work")
			}
			for name, m := range a.Metrics {
				if exact(name) && m.Value != b.Metrics[name].Value {
					t.Errorf("%s = %v, then %v: simulated counts must repeat exactly", name, m.Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

func TestOutputChecksCatchInjectedMismatch(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := tiny(t, w, false, true)
			if res.Correct || res.Failed == 0 {
				t.Errorf("an injected mismatch went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json, the metric tables
// and README.md together.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness runs %s", got, want)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if !strings.Contains(string(readme), "`"+d.name+"`") {
				t.Errorf("README.md does not describe %s", d.name)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}
