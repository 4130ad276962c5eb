package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json, workloads.json and the
// metric lists the program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []m                     `json:"end_to_end"`
		PerLayer  []m                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	st, err := loadSettings()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(st.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.json", len(b.Workloads), len(st.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != st.Workloads[i].Name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, st.Workloads[i].Name)
		}
	}
	same := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s vs %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}
