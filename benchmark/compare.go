package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges one metric on one workload: base and next are the two
// sides' values over their runs. worse is the share of base's median by
// which next's median is worse (negative: better). A side whose own
// run-to-run spread exceeds the bound cannot resolve a change of the
// bound's size, so the verdict is unresolved, never unchanged.
func verdict(base, next []float64, higherIsBetter bool, bound float64) (v string, worse, spreadBase, spreadNext float64) {
	mb, mn := median(base), median(next)
	spreadBase, spreadNext = spread(base), spread(next)
	if mb != 0 {
		worse = (mn - mb) / mb
		if higherIsBetter {
			worse = -worse
		}
	}
	switch {
	case spreadBase > bound || spreadNext > bound:
		v = unresolved
	case worse > bound:
		v = regressed
	case worse < -bound:
		v = improved
	default:
		v = unchanged
	}
	return v, worse, spreadBase, spreadNext
}

// calibrationKey files each run's machine calibration beside its metrics.
const calibrationKey = "(calibration_ms)"

func readSuite(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		if r.CalibrationMS > 0 {
			out[r.Workload][calibrationKey] = append(out[r.Workload][calibrationKey], r.CalibrationMS)
		}
	}
	return out, nil
}

// compareFiles prints, workload by workload, every end-to-end metric's
// two medians, their ratio with its base, both spreads and the verdict
// under BENCHMARK.json's bound. It returns an error (exit 1) if any
// metric regressed, so a script can gate on it.
func compareFiles(w io.Writer, benchPath, basePath, nextPath string) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench benchmarkJSON
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readSuite(basePath)
	if err != nil {
		return err
	}
	next, err := readSuite(nextPath)
	if err != nil {
		return err
	}
	regressions := 0
	for _, sp := range specs {
		counts := map[string]int{}
		var lines []string
		for _, m := range bench.EndToEnd {
			bv, nv := base[sp.name][m.Name], next[sp.name][m.Name]
			if len(bv) == 0 || len(nv) == 0 {
				return fmt.Errorf("%s %s: missing from one side (%d and %d runs)", sp.name, m.Name, len(bv), len(nv))
			}
			v, worse, sb, sn := verdict(bv, nv, m.Better == "higher", m.Bound)
			counts[v]++
			lines = append(lines, fmt.Sprintf("  %-22s %12.4f -> %12.4f %-4s  x%.3f of base  %+6.1f%% worse  bound %4.1f%%  spread %4.1f%% / %4.1f%% (n=%d/%d)  %s",
				m.Name, median(bv), median(nv), m.Unit, median(nv)/median(bv), 100*worse, 100*m.Bound, 100*sb, 100*sn, len(bv), len(nv), v))
		}
		regressions += counts[regressed]
		fmt.Fprintf(w, "%-15s %d improved / %d unchanged / %d regressed / %d unresolved (spread > bound)\n",
			sp.name, counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
		if cb, cn := base[sp.name][calibrationKey], next[sp.name][calibrationKey]; len(cb) > 0 && len(cn) > 0 {
			fmt.Fprintf(w, "  machine calibration (fixed work, not a metric): %.2f -> %.2f ms, x%.3f of base\n", median(cb), median(cn), median(cn)/median(cb))
		}
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric x workload pairs regressed", regressions)
	}
	return nil
}
