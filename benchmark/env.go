package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// clients is the closed-loop generator width every serving window runs
// at: one goroutine, one Router and one keep-alive connection per client.
// It is a constant, not a flag — the committed bounds were derived at
// this width on a 2-CPU box, and a different width is a different
// benchmark.
const clients = 2

// Env is the environment stamp carried by every output: a number is only
// comparable with another recorded on the same machine shape.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
	Loop       string `json:"loop"`
	Flush      string `json:"flush_policy"`
	Note       string `json:"note"`
}

// stampEnv collects the stamp. The commit is "unknown" outside a git
// checkout (the acceptance driver runs from an exported tree).
func stampEnv(root string) Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		Clients:    clients,
		Loop:       "closed (mixed_rw's writer: open, one update every 3 s)",
		Flush:      "WAL default: group-commit fsync before every update ack",
		Note:       "fsync and latency figures are this sandbox's (page cache, shared CPUs), not a storage device's or a network's",
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		e.Commit = out
		if st, err := gitOutput(root, "status", "--porcelain"); err == nil {
			e.Dirty = st != ""
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "", err
	}
	return strings.TrimSpace(out.String()), nil
}

// checkEnv refuses machine shapes the numbers cannot be trusted on: with
// fewer processors than clients the generator's goroutines queue behind
// each other and the latency measured is the scheduler's.
func checkEnv(e Env) error {
	if e.GOMAXPROCS < 2 {
		return fmt.Errorf("GOMAXPROCS is %d: the generator and the daemons would time-share one processor; need at least 2", e.GOMAXPROCS)
	}
	if e.Clients > e.GOMAXPROCS {
		return fmt.Errorf("%d clients > GOMAXPROCS %d: refusing to queue generator goroutines on fewer processors", e.Clients, e.GOMAXPROCS)
	}
	return nil
}

// repoRoot walks up from the working directory to the directory whose
// go.mod declares the product module. `go run -C benchmark .` starts the
// program in benchmark/, so the root is normally the parent.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring module repro above the working directory")
		}
		dir = parent
	}
}

// calibrate times a fixed piece of single-threaded work (a xorshift walk
// over 4 MiB, median of 5) in this process. It is NOT used to adjust any
// metric. It is printed with every run and kept in suite files because
// this kind of sandbox changes speed by 20-30 % for minutes at a time:
// when two sets of runs disagree, the calibration says whether the
// machine did.
func calibrate() float64 {
	buf := make([]uint64, 1<<19)
	var reps []float64
	for r := 0; r < 5; r++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<21; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[x&(1<<19-1)] += x
		}
		reps = append(reps, float64(time.Since(t))/1e6)
	}
	sink = buf
	return median(reps)
}
