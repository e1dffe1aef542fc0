package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type layersFile struct {
	Metrics map[string]struct {
		Layer     string   `json:"layer"`
		Moves     []string `json:"moves"`
		On        []string `json:"on"`
		NeutralOn []string `json:"neutral_on"`
	} `json:"metrics"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// tiny is a benchmark run at the shortest useful length.
func tiny(t *testing.T, workload string, seed int64, trace bool) config {
	return config{workload: workload, seed: seed, run: 200 * time.Millisecond, trace: trace, out: t.TempDir(), setups: 1}
}

// TestSelf runs every workload briefly and checks the benchmark's
// contract: each end-to-end metric is reported by name with its unit,
// every op passes its output checks, the simulated-output digest
// repeats for a seed and changes with it, and the traced run reports
// every per-layer metric.
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var bench benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bench)
	for _, w := range bench.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			inf, res, err := run(tiny(t, w, 7, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d (first failure %q)", res.Correct, res.Attempted, res.Failed, inf.FirstFailure)
			}
			if len(res.Metrics) != len(bench.EndToEnd) {
				t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(bench.EndToEnd))
			}
			for _, m := range bench.EndToEnd {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("metric %s not reported", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("metric %s in %s, want %s", m.Name, got.Unit, m.Unit)
				case got.Value <= 0:
					t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
				}
			}
			if r := res.Metrics["op_ok_ratio"].Value; r != 1 {
				t.Errorf("op_ok_ratio = %v, want 1", r)
			}

			again, _, err := run(tiny(t, w, 7, false))
			if err != nil {
				t.Fatal(err)
			}
			if again.SimDigest != inf.SimDigest {
				t.Errorf("seed 7 gave sim_digest %s, then %s", inf.SimDigest, again.SimDigest)
			}
			other, _, err := run(tiny(t, w, 8, false))
			if err != nil {
				t.Fatal(err)
			}
			if other.SimDigest == inf.SimDigest {
				t.Errorf("seeds 7 and 8 gave the same sim_digest %s", inf.SimDigest)
			}

			_, tr, err := run(tiny(t, w, 7, true))
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Errorf("traced run: %d of %d ops failed", tr.Failed, tr.Attempted)
			}
			if len(tr.Metrics) != len(bench.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json names %d", len(tr.Metrics), len(bench.PerLayer))
			}
			for _, m := range bench.PerLayer {
				got, ok := tr.Metrics[m.Name]
				if !ok {
					t.Errorf("per-layer metric %s not reported", m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("per-layer metric %s in %s, want %s", m.Name, got.Unit, m.Unit)
				}
			}
		})
	}
}

// TestLayerTargets checks that every per-layer metric records the layer
// it measures, the end-to-end metrics it should move, and the workloads
// it should move them on and stay neutral on.
func TestLayerTargets(t *testing.T) {
	var bench benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bench)
	var layers layersFile
	readJSON(t, "layers.json", &layers)
	e2e := map[string]bool{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	wls := map[string]bool{}
	for _, w := range bench.Workloads {
		wls[w.Name] = true
	}
	for _, m := range bench.PerLayer {
		l, ok := layers.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: no entry in layers.json", m.Name)
			continue
		}
		if l.Layer == "" || len(l.Moves) == 0 || len(l.On) == 0 {
			t.Errorf("%s: layer, moves and on must be set", m.Name)
		}
		for _, e := range l.Moves {
			if !e2e[e] {
				t.Errorf("%s: moves unknown end-to-end metric %s", m.Name, e)
			}
		}
		for _, w := range append(append([]string{}, l.On...), l.NeutralOn...) {
			if !wls[w] {
				t.Errorf("%s: unknown workload %s", m.Name, w)
			}
		}
	}
	if len(layers.Metrics) != len(bench.PerLayer) {
		t.Errorf("layers.json has %d entries, BENCHMARK.json %d per-layer metrics", len(layers.Metrics), len(bench.PerLayer))
	}
}
