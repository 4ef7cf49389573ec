package index

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Parallel offline indexing. Metagraph matching dominates the offline
// phase (Table III) and is embarrassingly parallel across metagraphs: each
// metagraph's instances land in its own single-metagraph part index, and
// parts merge deterministically by metagraph offset regardless of which
// worker finished first. Matchers carry per-Match scratch plus
// construction-time statistics, so every worker owns a private matcher
// and a private counter whose key scratch it reuses across its metagraphs.

// Count counts every metagraph of ms on g into its own single-metagraph
// part index, aligned with ms: a two-edge metapath's part serves its rows
// from g (twoedge.go), every other metagraph is counted by SymISO. It is
// how an engine matches the metagraphs it holds. The parts are the same at
// any CPU count.
func Count(g *graph.Graph, ms []*metagraph.Metagraph) []*Index {
	return countParts(g, ms, func(c *counter, s *match.SymISO, m *metagraph.Metagraph) *Index { return c.part(m, s) })
}

// countParts fans ms out over runtime.GOMAXPROCS goroutines: a two-edge
// metapath's part is served from g, every other metagraph's is count's,
// with the goroutine's scratch and, from its first such one, its SymISO.
func countParts(g *graph.Graph, ms []*metagraph.Metagraph, count func(*counter, *match.SymISO, *metagraph.Metagraph) *Index) []*Index {
	parts := make([]*Index, len(ms))
	fanOut(len(ms), 0, func() func(int) {
		var matcher *match.SymISO
		sc := &counter{}
		return func(i int) {
			if IsTwoEdgeMetapath(ms[i]) {
				parts[i] = pathPart(g, ms[i])
				return
			}
			if matcher == nil {
				matcher = match.NewSymISO(g)
			}
			parts[i] = count(sc, matcher, ms[i])
		}
	})
	return parts
}

// MatchParts matches every metagraph of ms into its own single-metagraph
// index using the given number of workers (as fanOut counts them). newMatcher
// is invoked once per worker, and each worker counts with one scratch. The
// returned parts and wall-clock durations are aligned with ms, and
// Merge(parts...) is the same index at any number of workers. Every
// metagraph is searched, two-edge metapaths too: the paper's Table III
// times SymISO itself.
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

// fanOut calls job(i) for every i < n on min(n, workers) goroutines, a
// workers value below 1 meaning one per available CPU
// (runtime.GOMAXPROCS), each job the one newWorker returned for its
// goroutine, so that a worker's state is its own. One worker runs on the
// caller's goroutine.
func fanOut(n, workers int, newWorker func() func(int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
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
