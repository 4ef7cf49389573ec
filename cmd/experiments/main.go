// Command experiments regenerates the tables and figures of the paper's
// evaluation (Sect. V) on the synthetic datasets and prints them in paper
// order. Each experiment reports the same rows/series as its counterpart;
// see EXPERIMENTS.md for the shape comparison against the published
// numbers.
//
// Usage:
//
//	experiments [-exp all|table2|fig4|fig6|fig7|table3|fig8|fig9|fig10|fig11]
//	            [-linkedin-users N] [-facebook-users N] [-splits N]
//	            [-train-examples N] [-max-nodes N] [-min-support N] [-seed N]
//	            [-workers N]
//
// The defaults complete in a few minutes on one core; raise the user
// counts to approach the paper's dataset sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: all, table2, fig4, fig6, fig7, table3, fig8, fig9, fig10, fig11")
		liUsers  = flag.Int("linkedin-users", 0, "LinkedIn-like user count (0 = default)")
		fbUsers  = flag.Int("facebook-users", 0, "Facebook-like user count (0 = default)")
		splits   = flag.Int("splits", 0, "train/test splits to average over (0 = default; paper uses 10)")
		trainEx  = flag.Int("train-examples", 0, "training examples for single-model experiments (0 = default; paper uses 1000)")
		maxNodes = flag.Int("max-nodes", 0, "metagraph size cap (0 = default; paper uses 5)")
		minSup   = flag.Int("min-support", 0, "MNI support threshold (0 = default)")
		seed     = flag.Int64("seed", 0, "base random seed (0 = default)")
		workers  = flag.Int("workers", 0, "offline matching workers (0 = one per CPU; learned results are identical for every count, only timings change; mining always uses GOMAXPROCS)")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *liUsers > 0 {
		cfg.LinkedInUsers = *liUsers
	}
	if *fbUsers > 0 {
		cfg.FacebookUsers = *fbUsers
	}
	if *splits > 0 {
		cfg.Splits = *splits
	}
	if *trainEx > 0 {
		cfg.TrainExamples = *trainEx
	}
	if *maxNodes > 0 {
		cfg.Mining.MaxNodes = *maxNodes
	}
	if *minSup > 0 {
		cfg.Mining.MinSupport = *minSup
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	s := experiments.NewSuite(cfg)
	run := func(name string, fn func() experiments.Report) {
		start := time.Now()
		rep := fn()
		fmt.Println(rep.String())
		fmt.Printf("(generated in %.1fs)\n\n", time.Since(start).Seconds())
	}

	all := map[string]func() experiments.Report{
		"table2": s.Table2,
		"fig4":   s.Fig4,
		"fig6":   s.Fig6,
		"fig7":   s.Fig7,
		"table3": s.Table3,
		"fig8":   s.Fig8,
		"fig9":   s.Fig9,
		"fig10":  s.Fig10,
		"fig11":  s.Fig11,
	}
	order := []string{"table2", "fig4", "fig6", "fig7", "table3", "fig8", "fig9", "fig10", "fig11"}

	switch *exp {
	case "all":
		for _, name := range order {
			run(name, all[name])
		}
	default:
		fn, ok := all[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			flag.Usage()
			os.Exit(2)
		}
		run(*exp, fn)
	}
}
