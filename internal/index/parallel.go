package index

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/match"
	"repro/internal/metagraph"
)

// Parallel offline indexing. Metagraph matching dominates the offline
// phase (Table III) and is embarrassingly parallel across metagraphs: each
// metagraph's instances land in its own single-metagraph part index, and
// parts merge deterministically by metagraph offset regardless of which
// worker finished first. Matchers carry per-Match scratch plus
// construction-time statistics, so every worker owns a private matcher
// built by the newMatcher factory, and a private counter whose key scratch
// it reuses across its metagraphs.

// Workers normalizes a worker-count option: values < 1 mean "one worker
// per available CPU" (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// MatchParts matches every metagraph of ms into its own single-metagraph
// index using the given number of workers (Workers-normalized). newMatcher
// is invoked once per worker, and each worker counts with one scratch. The
// returned parts and wall-clock durations are aligned with ms;
// Merge(parts...) reproduces the serial build exactly.
func MatchParts(ms []*metagraph.Metagraph, newMatcher func() match.Matcher, workers int) ([]*Index, []time.Duration) {
	if len(ms) == 0 {
		return nil, nil
	}
	parts := make([]*Index, len(ms))
	times := make([]time.Duration, len(ms))
	fanOut(len(ms), workers, func() func(int) {
		matcher, sc := newMatcher(), &counter{}
		return func(i int) {
			t0 := time.Now()
			parts[i] = sc.part(ms[i], matcher)
			times[i] = time.Since(t0)
		}
	})
	return parts, times
}

// fanOut calls job(i) for every i < n on min(n, Workers(workers))
// goroutines, each job the one newWorker returned for its goroutine, so
// that a worker's state is its own. One worker runs on the caller's
// goroutine.
func fanOut(n, workers int, newWorker func() func(int)) {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		if n > 0 {
			job := newWorker()
			for i := range n {
				job(i)
			}
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		job := newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				job(i)
			}
		}()
	}
	for i := range n {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// BuildParallel is the parallel offline index build: MatchParts followed by
// the offset-aware Merge. It produces an Index identical to adding every
// metagraph to one Builder serially, in near-linear time in the worker
// count when matching dominates.
func BuildParallel(ms []*metagraph.Metagraph, newMatcher func() match.Matcher, workers int) *Index {
	parts, _ := MatchParts(ms, newMatcher, workers)
	return Merge(parts...)
}
