package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON pins BENCHMARK.json to what the benchmark prints:
// the same workloads, and the same metric names and units for both
// kinds of run.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	one := &tally{laps: []lapStats{{setupS: 1, hours: 1, advanceS: 1, stepS: []float64{1}, reads: 1, readMs: []float64{1}}}}
	same := func(kind string, got map[string]metric, want []entry) {
		names := sortedNames(got)
		if len(names) != len(want) {
			t.Errorf("%s: the benchmark prints %v, BENCHMARK.json lists %d", kind, names, len(want))
		}
		for _, e := range want {
			m, ok := got[e.Name]
			if !ok {
				t.Errorf("%s: %s is not printed", kind, e.Name)
			} else if m.Unit != e.Unit {
				t.Errorf("%s: %s printed in %s, listed in %s", kind, e.Name, m.Unit, e.Unit)
			}
		}
	}
	same("end_to_end", endToEnd(one), spec.EndToEnd)
	same("per_layer", perLayer(one, newTracer(), 1, 1), spec.PerLayer)
}
