package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONNamesMetrics keeps the repository's BENCHMARK.json in
// step with the metrics this program reports.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var want []struct{ Name, Unit string }
	for _, m := range endToEnd {
		want = append(want, struct{ Name, Unit string }{m.name, m.unit})
	}
	if !equalNames(spec.EndToEnd, want) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nreported:\n%v", spec.EndToEnd, want)
	}
	want = nil
	for _, m := range perLayer(newTracer()) {
		want = append(want, struct{ Name, Unit string }{m.name, m.unit})
	}
	for _, m := range tails {
		want = append(want, struct{ Name, Unit string }{m.name, m.unit})
	}
	for _, m := range append(endToEnd, tails...) {
		want = append(want, struct{ Name, Unit string }{"overhead_pct." + m.name, "%"})
	}
	if !equalNames(spec.PerLayer, want) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nreported:\n%v", spec.PerLayer, want)
	}
}

func equalNames(a, b []struct{ Name, Unit string }) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
