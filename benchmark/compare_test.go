package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	tight := func(m float64) []float64 { return []float64{m * 0.995, m, m * 1.005, m * 0.998, m * 1.002} }
	noisy := func(m float64) []float64 { return []float64{m * 0.8, m, m * 1.2, m * 0.9, m * 1.1} }  // spread 30 %
	mild := func(m float64) []float64 { return []float64{m * 0.9, m, m * 1.1, m * 0.95, m * 1.05} } // spread 15 %
	for _, c := range []struct {
		name       string
		base, next []float64
		higher     bool
		bound      float64
		want       string
	}{
		{"latency up 20% of base", tight(100), tight(120), false, 0.05, regressed},
		{"latency down 20%", tight(100), tight(80), false, 0.05, improved},
		{"latency up 2% inside a 5% bound", tight(100), tight(102), false, 0.05, unchanged},
		{"throughput down 20%", tight(1000), tight(800), true, 0.05, regressed},
		{"throughput up 20%", tight(1000), tight(1200), true, 0.05, improved},
		{"base side too noisy to resolve the bound", noisy(100), tight(100), false, 0.05, unresolved},
		{"next side too noisy, even though its median regressed", tight(100), noisy(130), false, 0.05, unresolved},
		{"noise inside a wide bound resolves", mild(100), mild(101), false, 0.25, unchanged},
		{"and a change beyond that bound shows through it", mild(100), mild(140), false, 0.25, regressed},
	} {
		if got, _, _, _ := verdict(c.base, c.next, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// The share is of the BASE's median.
	if _, worse, _, _ := verdict([]float64{100}, []float64{150}, false, 0.1); worse != 0.5 {
		t.Errorf("100 -> 150 is %.2f worse, want 0.50 of base", worse)
	}
}

// writeSuite stores a results file whose every workload reports the
// given end-to-end values, scaled by factor on one metric.
func writeSuite(t *testing.T, path, metric string, factor float64) {
	t.Helper()
	var f suiteFile
	for _, sp := range specs {
		for run := 0; run < 5; run++ {
			r := suiteRun{Workload: sp.name, Seed: int64(run), CalibrationMS: 10 * factor}
			r.Correct, r.Attempted = true, 1
			r.Metrics = map[string]metricValue{}
			for i, d := range endToEnd {
				v := float64(100*(i+1)) * (1 + 0.001*float64(run))
				if d.name == metric && sp.name == "mixed_rw" {
					v *= factor
				}
				r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			}
			f.Runs = append(f.Runs, r)
		}
		// A traced run in the file must be ignored by -compare.
		f.Runs = append(f.Runs, suiteRun{Workload: sp.name, Traced: true})
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bench := filepath.Join(root, "BENCHMARK.json")
	dir := t.TempDir()
	a, same, slow, fast := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"), filepath.Join(dir, "slow.json"), filepath.Join(dir, "fast.json")
	writeSuite(t, a, "", 1)
	writeSuite(t, same, "", 1)
	writeSuite(t, slow, "query_p50_us", 1.5)
	writeSuite(t, fast, "read_ops_s", 1.5)

	var out bytes.Buffer
	if err := compareFiles(&out, bench, a, same); err != nil {
		t.Fatalf("identical sides: %v", err)
	}
	for _, sp := range specs {
		if !strings.Contains(out.String(), sp.name) {
			t.Errorf("no row for workload %s", sp.name)
		}
	}
	if !strings.Contains(out.String(), "machine calibration (fixed work, not a metric): 10.00 -> 10.00 ms") {
		t.Errorf("no calibration context:\n%s", out.String())
	}
	if strings.Contains(out.String(), " "+regressed+"\n") || strings.Contains(out.String(), " "+improved+"\n") {
		t.Errorf("identical sides produced a change:\n%s", out.String())
	}

	out.Reset()
	if err := compareFiles(&out, bench, a, slow); err == nil {
		t.Error("a 50% slower query_p50_us did not fail the comparison")
	}
	rest := len(endToEnd) - 1
	if !strings.Contains(out.String(), fmt.Sprintf("0 improved / %d unchanged / 1 regressed / 0 unresolved", rest)) {
		t.Errorf("expected exactly one regression on mixed_rw:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, bench, a, fast); err != nil {
		t.Errorf("an improvement failed the comparison: %v", err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("1 improved / %d unchanged / 0 regressed / 0 unresolved", rest)) {
		t.Errorf("expected exactly one improvement on mixed_rw:\n%s", out.String())
	}
}
