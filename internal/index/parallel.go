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
	workers = Workers(workers)
	if workers > len(ms) {
		workers = len(ms)
	}
	if workers <= 1 {
		matcher, sc := newMatcher(), &counter{}
		for i, m := range ms {
			t0 := time.Now()
			parts[i] = sc.part(m, matcher)
			times[i] = time.Since(t0)
		}
		return parts, times
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		matcher, sc := newMatcher(), &counter{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				parts[i] = sc.part(ms[i], matcher)
				times[i] = time.Since(t0)
			}
		}()
	}
	for i := range ms {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return parts, times
}

// matchOne builds the single-metagraph part index of m with a fresh
// scratch.
func matchOne(m *metagraph.Metagraph, matcher match.Matcher) *Index {
	return (&counter{}).part(m, matcher)
}

// BuildParallel is the parallel offline index build: MatchParts followed by
// the offset-aware Merge. It produces an Index identical to adding every
// metagraph to one Builder serially, in near-linear time in the worker
// count when matching dominates.
func BuildParallel(ms []*metagraph.Metagraph, newMatcher func() match.Matcher, workers int) *Index {
	parts, _ := MatchParts(ms, newMatcher, workers)
	return Merge(parts...)
}
