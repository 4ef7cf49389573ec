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
// part index, aligned with ms: a two-edge metapath by the merge of common
// neighbours (twoedge.go), every other metagraph by SymISO. It is how an
// engine matches the metagraphs it holds. The metagraphs fan out over
// runtime.GOMAXPROCS goroutines, each with a private scratch and, from its
// first metagraph the merge does not count, a private SymISO; the parts
// are the same at any CPU count. The offline build has no error path, so a
// graph on which a two-edge metapath could pair more postings than an
// index holds panics, as a count past uint32 does.
func Count(g *graph.Graph, ms []*metagraph.Metagraph) []*Index {
	parts := make([]*Index, len(ms))
	fanOut(len(ms), 0, func() func(int) {
		var matcher *match.SymISO
		sc := &counter{}
		return func(i int) {
			if IsTwoEdgeMetapath(ms[i]) {
				p, err := twoEdgePart(g, ms[i])
				if err != nil {
					panic(err)
				}
				parts[i] = p
				return
			}
			if matcher == nil {
				matcher = match.NewSymISO(g)
			}
			parts[i] = sc.part(ms[i], matcher)
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
