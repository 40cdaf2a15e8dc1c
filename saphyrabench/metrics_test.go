package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type benchSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s (%s), benchmark has %s (%s)", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark has %s (%s)", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s, benchmark has %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, traced
// and untraced, and checks the result line against BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("brings every workload up at full size")
	}
	s := loadSpec(t)
	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range s.EndToEnd {
		units["0"][m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		units["1"][m.Name] = m.Unit
	}
	workdir := t.TempDir()
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "2", "--trace", trace, "--workdir", workdir}
			if err := run(&out, args); err != nil {
				t.Fatalf("%s trace %s: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not JSON: %v", w.Name, trace, err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Fatalf("%s trace %s: result keys %v", w.Name, trace, res)
			}
			var r result
			json.Unmarshal([]byte(lines[len(lines)-1]), &r)
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(units[trace]) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(units[trace]))
			}
			for name, unit := range units[trace] {
				v, ok := r.Metrics[name]
				if !ok || v.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, name, v, unit)
				}
				if trace == "0" && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, name)
				}
			}
		}
	}
}
