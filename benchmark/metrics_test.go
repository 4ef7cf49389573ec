package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesTheProgram holds BENCHMARK.json and the metric
// and workload tables together: the driver refuses a run whose result
// line does not carry exactly the declared metrics.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decl.Command, []string{"go", "run", "-C", "benchmark", "."}) || !slices.Equal(decl.Paths, []string{"benchmark"}) {
		t.Errorf("command %v / paths %v do not run this package", decl.Command, decl.Paths)
	}
	// 4 + 22 x workloads runs must fit the driver's 3420 s with a margin;
	// a run is its window plus ~12 s (see README).
	if decl.RunSeconds != 15 {
		t.Errorf("run_seconds %d: the committed bounds were derived at 15", decl.RunSeconds)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d in the program's table", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], program has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
			if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
	if decl.EndToEnd[0].Name != "setup_s" || decl.EndToEnd[0].Unit != "s" || decl.EndToEnd[0].Better != "lower" {
		t.Error("the contract's setup_s metric is missing or misdeclared")
	}
}

func TestFillRefusesGapsAndStrays(t *testing.T) {
	table := []metricDef{{"a", "s"}, {"b", "ms"}}
	if m, err := fill(table, map[string]float64{"a": 1, "b": 2}); err != nil || m["b"].Unit != "ms" || m["a"].Value != 1 {
		t.Errorf("complete values: %v, %v", m, err)
	}
	if _, err := fill(table, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := fill(table, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("a metric outside the table was accepted")
	}
}

func TestEnvGuards(t *testing.T) {
	ok := Env{GOMAXPROCS: 2, Clients: 2}
	if err := checkEnv(ok); err != nil {
		t.Errorf("2 clients on 2 processors refused: %v", err)
	}
	if checkEnv(Env{GOMAXPROCS: 1, Clients: 1}) == nil {
		t.Error("GOMAXPROCS 1 accepted")
	}
	if checkEnv(Env{GOMAXPROCS: 2, Clients: 3}) == nil {
		t.Error("more clients than processors accepted")
	}
}
