// Command benchmark is this repository's one measurement spine: four
// workloads against the real out-of-process stack (cmd/semproxd,
// cmd/semproxy built from the checkout), every answer checked against an
// in-process oracle engine, plus a traced run that times each layer's
// public functions. See README.md for the metric glossary.
//
//	go run -C benchmark . -workload read_direct -seed 1 -seconds 10 -trace 0   # one run, one result line (BENCHMARK.json's command)
//	go run -C benchmark . -seed 1 -runs 5                                      # the suite: every workload, results file for -compare
//	go run -C benchmark . -compare out/a.json out/b.json                       # verdict per metric x workload under BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/atomicfile"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-refserver" { // the reference server child, see ref.go
		if err := refServerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark -refserver:", err)
			os.Exit(1)
		}
		return
	}
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result line (read_direct, read_edge_zipf, mixed_rw, lifecycle); empty runs the suite")
		seed     = flag.Int64("seed", 1, "every input — dataset, training examples, operation streams — is a pure function of this")
		seconds  = flag.Int("seconds", 15, "measured window length in whole seconds (after a discarded 3 s warm-up)")
		trace    = flag.Int("trace", 0, "1: the traced run — per-layer metrics and span files instead of end-to-end metrics")
		quick    = flag.Bool("quick", false, "smoke sizing: 2-second windows, one bring-up per run")
		runs     = flag.Int("runs", 1, "suite: untraced runs per workload, seeds seed, seed+1, ...")
		out      = flag.String("out", "", "suite: results file (default benchmark/out/results-seed<seed>.json)")
		compare  = flag.Bool("compare", false, "compare two suite results files given as arguments")
	)
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	env := stampEnv(root)
	if err := checkEnv(env); err != nil {
		return err
	}

	// Every exit path below returns through here, so the sandbox's daemons
	// and directories are reaped on success, failure and SIGINT/SIGTERM
	// alike.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sb, err := newSandbox(root)
	if err != nil {
		return err
	}
	defer sb.close()

	cfg := runConfig{
		root:   root,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		info:   os.Stderr,
		warm:   3 * time.Second,
	}
	if *quick {
		cfg.window, cfg.warm, cfg.quick = 2*time.Second, 500*time.Millisecond, true
	}
	if cfg.bins, cfg.goBuild, err = buildBinaries(ctx, root); err != nil {
		return err
	}
	stamp, _ := json.Marshal(env)
	fmt.Fprintf(os.Stderr, "# env %s\n# daemons built in %.2fs; window %v after %v warm-up; dataset seed = -seed\n", stamp, cfg.goBuild.Seconds(), cfg.window, cfg.warm)

	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		cfg.traced = *trace == 1
		res, err := run(ctx, sb, cfg, sp)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	if *out == "" {
		*out = filepath.Join(root, "benchmark", "out", fmt.Sprintf("results-seed%d.json", *seed))
	}
	return suite(ctx, sb, cfg, env, *runs, *out)
}

// suiteFile is what the suite writes and -compare reads.
type suiteFile struct {
	Env     Env        `json:"env"`
	Seed    int64      `json:"seed"`
	Window  string     `json:"window"`
	WarmUp  string     `json:"warm_up"`
	Dataset string     `json:"dataset"`
	Claim   *string    `json:"claim"` // always null: this benchmark records a baseline, it claims nothing
	Runs    []suiteRun `json:"runs"`
}

type suiteRun struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Traced        bool    `json:"traced"`
	CalibrationMS float64 `json:"calibration_ms"` // see calibrate: context, not a metric
	resultLine
}

// suite runs every workload runs times untraced (seeds seed, seed+1, ...)
// and once traced, printing each metric table as it goes, and writes all
// result lines to one file. Nothing is written unless every run passed.
func suite(ctx context.Context, sb *sandbox, cfg runConfig, env Env, runs int, out string) error {
	file := suiteFile{
		Env: env, Seed: cfg.seed, Window: cfg.window.String(), WarmUp: cfg.warm.String(),
		Dataset: "synthetic LinkedIn-like graph, NoiseRate 0.05, class college; users and MaxNodes per workload (see README)",
	}
	for _, sp := range specs {
		for i := 0; i <= runs; i++ {
			c := cfg
			c.traced = i == runs
			if !c.traced {
				c.seed = cfg.seed + int64(i)
			}
			res, err := run(ctx, sb, c, sp)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			file.Runs = append(file.Runs, suiteRun{Workload: sp.name, Seed: c.seed, Traced: c.traced, CalibrationMS: res.calibrationMS, resultLine: *res})
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := atomicfile.Write(out, append(b, '\n')); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# results written to %s\n", out)
	return nil
}
