package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run re-executes itself as the reference server (see ref.go).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-refserver" {
		if err := refServerMain(os.Args[2:]); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// TestQuickSmoke runs all four workloads, untraced and traced, against
// real out-of-process daemons at -quick sizing (2-second windows, one
// bring-up) and requires every declared metric to come back with its
// unit. About a minute; skipped under -short.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons; skipped under -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEnv(stampEnv(root)); err != nil {
		t.Skip(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	sb, err := newSandbox(root)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.close()
	var info bytes.Buffer
	cfg := runConfig{root: root, seed: 1, window: 2 * time.Second, warm: 500 * time.Millisecond, quick: true, info: &info}
	if cfg.bins, cfg.goBuild, err = buildBinaries(ctx, root); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			table := endToEnd
			if traced {
				table = perLayer
			}
			info.Reset()
			res, err := run(ctx, sb, cfg, sp)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", sp.name, traced, err, info.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(res.Metrics), len(table))
			}
			for _, d := range table {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q, want %q", sp.name, traced, d.name, m.Unit, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", sp.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace-"+sp.name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", sp.name, err)
				}
			}
		}
	}
	// Nothing the runs started is left behind.
	sb.close()
	if _, err := os.Stat(sb.dir); !os.IsNotExist(err) {
		t.Errorf("work directory %s survived close", sb.dir)
	}
}
