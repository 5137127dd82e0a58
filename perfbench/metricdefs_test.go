package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, when present beside this
// directory, in step with the workloads and metrics the program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json")
	}
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	for _, tc := range []struct {
		key  string
		spec []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range tc.spec {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range tc.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !equal(got, want) {
			t.Errorf("BENCHMARK.json %s\n  %v\nprogram emits\n  %v", tc.key, got, want)
		}
	}
}

func equal(a, b []string) bool {
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
