// Command bench measures the pipeline end to end and emits
// machine-readable perf trajectories:
//
//   - offline (BENCH_offline.json): mine → match → index across worker
//     counts (the dominant cost of Table III), cross-checked byte-for-byte
//     against the serial build before timings are reported.
//   - online (BENCH_online.json): the top-k candidate scan behind /query
//     (serial: queries never fan out), cross-checked element-for-element
//     against a score-by-key, sort-everything reference for every query
//     first.
//   - update (BENCH_update.json): one live ApplyUpdate cycle through the
//     public engine API, plus the incremental delta-seeded re-match vs a
//     full from-scratch re-match on a community-structured graph — the
//     patched index is cross-checked byte-for-byte against the scratch
//     build before timings are reported.
//   - wal (BENCH_wal.json): the durable write path — fsynced group-commit
//     appends across writer counts, in both the blocking (Append) and
//     pipelined (AppendAsync + WaitDurable) modes, cross-checked by
//     replaying the log (every record must come back, contiguous and
//     byte-identical) and by a reopen that must recover the same tail.
//   - routing (BENCH_routing.json): the routed-serving cycle — one durable
//     primary plus two real followers in-process, live updates streamed
//     through the WAL, a replica-aware client Router spreading reads —
//     cross-checked element-for-element against direct primary answers
//     before routed vs direct QPS is reported.
//   - failover (BENCH_failover.json): the failover cycle — synchronous
//     primary, two durable followers with promotion monitors, primary
//     killed under a routed writer — reporting time-to-restore-writes,
//     with every pre-kill acked write verified on the promoted primary.
//
// Any failure — a drifted index, a drifted ranking, a lost WAL record, an
// unwritable output — exits non-zero without touching the output files
// (writes are staged to a temp file and renamed), so a CI smoke step can
// gate on it.
//
// Usage:
//
//	go run ./cmd/bench [-users 200] [-reps 3] [-workers 1,2,4,8] [-k 10]
//	                   [-out BENCH_offline.json] [-online-out BENCH_online.json]
//	                   [-update-out BENCH_update.json] [-wal-out BENCH_wal.json]
//	                   [-routing-out BENCH_routing.json] [-failover-out BENCH_failover.json]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	semprox "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
	"repro/internal/report"
	"repro/internal/wal"
)

type run struct {
	Workers int     `json:"workers"`
	BestNs  int64   `json:"best_ns"`
	BestMs  float64 `json:"best_ms"`
	Speedup float64 `json:"speedup_vs_serial"`
}

type offlineReport struct {
	Benchmark  string    `json:"benchmark"`
	Dataset    string    `json:"dataset"`
	Users      int       `json:"users"`
	Metagraphs int       `json:"metagraphs"`
	NumPairs   int       `json:"num_pairs"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Reps       int       `json:"reps"`
	Timestamp  time.Time `json:"timestamp"`
	Runs       []run     `json:"runs"`
}

type onlineReport struct {
	Benchmark  string    `json:"benchmark"`
	Dataset    string    `json:"dataset"`
	Users      int       `json:"users"`
	Queries    int       `json:"queries"`
	K          int       `json:"k"`
	Metagraphs int       `json:"metagraphs"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Reps       int       `json:"reps"`
	Timestamp  time.Time `json:"timestamp"`
	BestNs     int64     `json:"best_ns"`
	NsPerQuery int64     `json:"ns_per_query"`
	QPS        float64   `json:"qps"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	if err := runBench(); err != nil {
		log.Fatal(err)
	}
}

func runBench() error {
	users := flag.Int("users", 200, "LinkedIn dataset size (bench scale)")
	reps := flag.Int("reps", 3, "repetitions per worker count (best wins)")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts")
	k := flag.Int("k", 10, "top-k for the online benchmark")
	out := flag.String("out", "BENCH_offline.json", "offline output path ('-' for stdout only)")
	onlineOut := flag.String("online-out", "BENCH_online.json", "online output path ('-' for stdout only)")
	updateOut := flag.String("update-out", "BENCH_update.json", "live-update output path ('-' for stdout only)")
	walOut := flag.String("wal-out", "BENCH_wal.json", "WAL append output path ('-' for stdout only)")
	routingOut := flag.String("routing-out", "BENCH_routing.json", "routed-serving output path ('-' for stdout only)")
	failoverOut := flag.String("failover-out", "BENCH_failover.json", "failover-cycle output path ('-' for stdout only)")
	flag.Parse()

	counts, err := parseWorkers(*workersFlag)
	if err != nil {
		return err
	}

	ds := dataset.LinkedIn(dataset.Config{Users: *users, Seed: 1, NoiseRate: 0.05})
	pats := mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	ms := mining.Metagraphs(pats)
	if len(ms) == 0 {
		return fmt.Errorf("no metagraphs mined; raise -users")
	}
	newMatcher := func() match.Matcher { return match.NewSymISO(ds.G) }

	ref, offline, err := benchOffline(ds, ms, newMatcher, counts, *reps)
	if err != nil {
		return err
	}
	online, err := benchOnline(ds, ref, len(ms), *reps, *k)
	if err != nil {
		return err
	}
	update, err := benchUpdate(*reps)
	if err != nil {
		return err
	}
	walRep, err := benchWAL(counts, *reps)
	if err != nil {
		return err
	}
	routing, err := benchRouting(*reps, *k)
	if err != nil {
		return err
	}
	failover, err := benchFailover(*reps)
	if err != nil {
		return err
	}
	if err := emit(*out, offline); err != nil {
		return err
	}
	if err := emit(*onlineOut, online); err != nil {
		return err
	}
	if err := emit(*updateOut, update); err != nil {
		return err
	}
	if err := emit(*walOut, walRep); err != nil {
		return err
	}
	if err := emit(*routingOut, routing); err != nil {
		return err
	}
	return emit(*failoverOut, failover)
}

// parseWorkers parses the -workers list, prepending the serial baseline
// and dropping duplicates so every row shares one baseline.
func parseWorkers(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers element %q", f)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 || counts[0] != 1 {
		counts = append([]int{1}, counts...)
	}
	seen := map[int]bool{}
	uniq := counts[:0]
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			uniq = append(uniq, w)
		}
	}
	return uniq, nil
}

// benchOffline measures the parallel index build. Every worker count must
// rebuild the serial index byte-for-byte before its timings mean anything.
func benchOffline(ds *dataset.Dataset, ms []*metagraph.Metagraph, newMatcher func() match.Matcher, counts []int, reps int) (*index.Index, *offlineReport, error) {
	ref := index.BuildParallel(ms, newMatcher, 1)
	var refBuf bytes.Buffer
	if err := index.Write(&refBuf, ref); err != nil {
		return nil, nil, err
	}
	for _, w := range counts {
		var buf bytes.Buffer
		if err := index.Write(&buf, index.BuildParallel(ms, newMatcher, w)); err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
			return nil, nil, fmt.Errorf("offline: workers=%d produced a different index than the serial build", w)
		}
	}

	rep := &offlineReport{
		Benchmark:  "offline_index_build",
		Dataset:    ds.Name,
		Users:      len(ds.Users()),
		Metagraphs: len(ms),
		NumPairs:   ref.NumPairs(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Timestamp:  time.Now().UTC(),
	}
	var serialBest time.Duration
	for _, w := range counts {
		best := time.Duration(0)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			ix := index.BuildParallel(ms, newMatcher, w)
			d := time.Since(t0)
			if ix.NumPairs() != ref.NumPairs() {
				return nil, nil, fmt.Errorf("offline: workers=%d: pair count drifted", w)
			}
			if best == 0 || d < best {
				best = d
			}
		}
		if w == 1 {
			serialBest = best
		}
		rep.Runs = append(rep.Runs, makeRun(w, best, serialBest))
		fmt.Printf("offline workers=%-3d best=%8.2fms speedup=%.2fx\n",
			w, float64(best.Nanoseconds())/1e6, rep.Runs[len(rep.Runs)-1].Speedup)
	}
	return ref, rep, nil
}

// benchOnline measures the top-k candidate scan over every anchor-typed
// node. Each ranking is first cross-checked element-for-element (node AND
// score bits) against the definition: every partner scored by key through
// core.Proximity, the positive ones sorted, the first k kept.
func benchOnline(ds *dataset.Dataset, ix *index.Index, numMeta, reps, k int) (*onlineReport, error) {
	w := core.UniformWeights(numMeta)
	queries := ds.Users()
	for _, q := range queries {
		var want []core.Ranked
		for _, v := range ix.Partners(q) {
			if s := core.Proximity(ix, w, q, v); s > 0 {
				want = append(want, core.Ranked{Node: v, Score: s})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].Node < want[j].Node
		})
		if k > 0 && len(want) > k {
			want = want[:k]
		}
		if got := core.RankTop(ix, w, q, k); !slices.Equal(got, want) {
			return nil, fmt.Errorf("online: query %d: RankTop drifted from the by-key reference (%+v vs %+v)", q, got, want)
		}
	}

	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, q := range queries {
			core.RankTop(ix, w, q, k)
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	rep := &onlineReport{
		Benchmark:  "online_rank_top",
		Dataset:    ds.Name,
		Users:      len(ds.Users()),
		Queries:    len(queries),
		K:          k,
		Metagraphs: numMeta,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Timestamp:  time.Now().UTC(),
		BestNs:     best.Nanoseconds(),
		NsPerQuery: best.Nanoseconds() / int64(len(queries)),
		QPS:        float64(len(queries)) / best.Seconds(),
	}
	fmt.Printf("online  best=%8.2fms ns/query=%d qps=%9.0f\n",
		float64(rep.BestNs)/1e6, rep.NsPerQuery, rep.QPS)
	return rep, nil
}

// makeRun fills one timing row.
func makeRun(workers int, best, serialBest time.Duration) run {
	speedup := 0.0
	if serialBest > 0 {
		speedup = float64(serialBest) / float64(best)
	}
	return run{
		Workers: workers,
		BestNs:  best.Nanoseconds(),
		BestMs:  float64(best.Nanoseconds()) / 1e6,
		Speedup: speedup,
	}
}

// emit writes the report to path through the shared trajectory plumbing
// (internal/report): atomic temp+rename, "-" prints to stdout.
func emit(path string, rep any) error {
	return report.EmitJSON(path, rep)
}

// updateReport is the BENCH_update.json shape.
type updateReport struct {
	Benchmark     string    `json:"benchmark"`
	Communities   int       `json:"communities"`
	Nodes         int       `json:"nodes"`
	Edges         int       `json:"edges"`
	Metagraphs    int       `json:"metagraphs"`
	GoMaxProcs    int       `json:"gomaxprocs"`
	Reps          int       `json:"reps"`
	Timestamp     time.Time `json:"timestamp"`
	IncrementalNs int64     `json:"incremental_ns"`
	RebuildNs     int64     `json:"rebuild_ns"`
	Speedup       float64   `json:"speedup_vs_rebuild"`
}

// walReport is the BENCH_wal.json shape.
type walReport struct {
	Benchmark   string    `json:"benchmark"`
	RecordBytes int       `json:"record_bytes"`
	GoMaxProcs  int       `json:"gomaxprocs"`
	Reps        int       `json:"reps"`
	Timestamp   time.Time `json:"timestamp"`
	Runs        []walRun  `json:"runs"`
}

// walRun is one (mode, writer-count) row of the WAL bench. Mode
// "blocking" is Append: every call returns only after its group's fsync,
// so per-writer latency is bounded below by the disk's sync time. Mode
// "pipelined" is AppendAsync with one WaitDurable barrier per writer:
// the stream keeps appending while the syncer fsyncs the previous batch,
// so one fsync amortizes over everything enqueued behind it. Durability
// is identical — in both modes nothing is acknowledged before its
// record's fsync completes; pipelining only moves WHERE the caller waits.
type walRun struct {
	Mode          string  `json:"mode"`
	Writers       int     `json:"writers"`
	Records       int     `json:"records"`
	BestNs        int64   `json:"best_ns"`
	NsPerAppend   int64   `json:"ns_per_append"`
	AppendsPerSec float64 `json:"appends_per_sec"`
}

// benchWAL measures fsynced group-commit appends across writer counts.
// Before any timing, the serial log is replayed and cross-checked: every
// record must come back contiguous and byte-identical to what was
// appended, and a reopen must recover the same durable position — the
// bench fails (exit non-zero) otherwise, like every other drift check
// here.
func benchWAL(counts []int, reps int) (*walReport, error) {
	mkDelta := func(i int) graph.Delta {
		return graph.Delta{
			Nodes: []graph.DeltaNode{{Type: "user", Value: fmt.Sprintf("wal-user-%d", i)}},
			Edges: []graph.Edge{{U: graph.NodeID(i), V: graph.NodeID(i + 1)}},
		}
	}
	const records = 128

	// Correctness pass: append serially, replay, reopen.
	dir, err := os.MkdirTemp("", "bench-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < records; i++ {
		lsn, err := w.Append(mkDelta(i))
		if err != nil {
			return nil, err
		}
		if lsn != uint64(i+1) {
			return nil, fmt.Errorf("wal: append %d assigned LSN %d", i, lsn)
		}
	}
	seen := 0
	err = w.Replay(0, func(r wal.Record) error {
		want := mkDelta(seen)
		if r.LSN != uint64(seen+1) || !bytes.Equal(graph.EncodeDelta(r.Delta), graph.EncodeDelta(want)) {
			return fmt.Errorf("wal: record %d drifted on replay", seen)
		}
		seen++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if seen != records {
		return nil, fmt.Errorf("wal: replayed %d records, want %d", seen, records)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	reopened, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("wal: reopen: %w", err)
	}
	if got := reopened.DurableLSN(); got != records {
		return nil, fmt.Errorf("wal: reopen recovered LSN %d, want %d", got, records)
	}
	reopened.Close()

	rep := &walReport{
		Benchmark:   "wal_append",
		RecordBytes: len(graph.EncodeDelta(mkDelta(0))),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Reps:        reps,
		Timestamp:   time.Now().UTC(),
	}
	for _, mode := range []string{"blocking", "pipelined"} {
		// The pipelined stream needs enough records for multiple sync
		// batches to overlap; the blocking mode pays one sync wait per
		// append, so 128 already dominates the timer.
		n := records
		if mode == "pipelined" {
			n = 4096
		}
		for _, writers := range counts {
			best := time.Duration(0)
			for r := 0; r < reps; r++ {
				runDir, err := os.MkdirTemp("", "bench-wal-run-*")
				if err != nil {
					return nil, err
				}
				wr, err := wal.Open(runDir, wal.Options{})
				if err != nil {
					os.RemoveAll(runDir)
					return nil, err
				}
				var wg sync.WaitGroup
				var failed atomic.Bool
				t0 := time.Now()
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						if mode == "blocking" {
							for i := g; i < n; i += writers {
								if _, err := wr.Append(mkDelta(i)); err != nil {
									failed.Store(true)
									return
								}
							}
							return
						}
						var last uint64
						for i := g; i < n; i += writers {
							lsn, err := wr.AppendAsync(mkDelta(i))
							if err != nil {
								failed.Store(true)
								return
							}
							last = lsn
						}
						// The ack barrier: nothing in this writer's stream
						// counts until its newest record is fsynced.
						if err := wr.WaitDurable(last); err != nil {
							failed.Store(true)
						}
					}(g)
				}
				wg.Wait()
				d := time.Since(t0)
				durable := wr.DurableLSN()
				wr.Close()
				os.RemoveAll(runDir)
				if failed.Load() || durable != uint64(n) {
					return nil, fmt.Errorf("wal: %s writers=%d lost records (durable %d, want %d)", mode, writers, durable, n)
				}
				if best == 0 || d < best {
					best = d
				}
			}
			run := walRun{
				Mode:          mode,
				Writers:       writers,
				Records:       n,
				BestNs:        best.Nanoseconds(),
				NsPerAppend:   best.Nanoseconds() / int64(n),
				AppendsPerSec: float64(n) / best.Seconds(),
			}
			rep.Runs = append(rep.Runs, run)
			fmt.Printf("wal     mode=%-9s writers=%-3d best=%8.2fms appends/s=%9.0f\n",
				mode, writers, float64(best.Nanoseconds())/1e6, run.AppendsPerSec)
		}
	}
	return rep, nil
}

// updateGraph mirrors the community-structured bench graph of
// BenchmarkApplyUpdate: clusters of users around cluster-local attribute
// nodes. (Its attribute nodes have degree 10; BenchmarkApplyUpdate/hub is
// the update on a hub.)
func updateGraph(communities, usersPer int) *graph.Graph {
	b := graph.NewBuilder()
	for _, tn := range []string{"user", "school", "employer", "hobby"} {
		b.Types().Register(tn)
	}
	for c := 0; c < communities; c++ {
		school := b.AddNodeOnce("school", fmt.Sprintf("school-%d", c))
		emp := b.AddNodeOnce("employer", fmt.Sprintf("employer-%d", c))
		for u := 0; u < usersPer; u++ {
			user := b.AddNode("user", fmt.Sprintf("user-%d-%d", c, u))
			b.AddEdge(user, school)
			if u%2 == 0 {
				b.AddEdge(user, emp)
			}
		}
	}
	return b.MustBuild()
}

// benchUpdate runs one live ApplyUpdate cycle through the public engine
// API, cross-checks the incremental index maintenance byte-for-byte
// against a from-scratch re-match of the final graph, and times
// incremental vs full re-match.
func benchUpdate(reps int) (*updateReport, error) {
	const communities, usersPer = 60, 10
	g := updateGraph(communities, usersPer)
	anchor := g.Types().ID("user")
	pats := mining.ProximityFilter(mining.Mine(g, mining.Options{MaxNodes: 4, MinSupport: 5}), anchor)
	ms := mining.Metagraphs(pats)
	if len(ms) == 0 {
		return nil, fmt.Errorf("update: no metagraphs mined from the community graph")
	}
	mkMatcher := func(gr *graph.Graph) match.Matcher { return match.NewSymISO(gr) }

	// The delta: one new user joining community 0.
	delta := graph.Delta{
		Nodes: []graph.DeltaNode{{Type: "user", Value: "update-user"}},
		Edges: []graph.Edge{
			{U: graph.NodeID(g.NumNodes()), V: g.NodeByName("school-0")},
			{U: graph.NodeID(g.NumNodes()), V: g.NodeByName("user-0-0")},
		},
	}

	// Full engine cycle: train, update, query — the exact flow semproxd's
	// POST /update drives.
	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 5}
	opts.Train.Restarts = 1
	opts.Train.MaxIters = 60
	eng, err := semprox.NewEngine(g, "user", opts)
	if err != nil {
		return nil, err
	}
	eng.Train("community", []semprox.Example{
		{Q: g.NodeByName("user-0-0"), X: g.NodeByName("user-0-1"), Y: g.NodeByName("user-1-0")},
		{Q: g.NodeByName("user-2-0"), X: g.NodeByName("user-2-1"), Y: g.NodeByName("user-3-0")},
	})
	st, err := eng.ApplyUpdate(delta)
	if err != nil {
		return nil, fmt.Errorf("update: ApplyUpdate: %w", err)
	}
	if st.Epoch != 1 || st.NodesAdded != 1 || st.EdgesAdded != 2 {
		return nil, fmt.Errorf("update: unexpected stats %+v", st)
	}
	eng.Compact()
	ranked, err := eng.Query("community", eng.Graph().NodeByName("update-user"), 5)
	if err != nil {
		return nil, fmt.Errorf("update: query after update: %w", err)
	}
	if len(ranked) == 0 {
		return nil, fmt.Errorf("update: new user has no ranked neighbors after update")
	}

	// Byte-for-byte cross-check of the incremental index maintenance.
	parts, _ := index.MatchParts(ms, func() match.Matcher { return mkMatcher(g) }, 1)
	ng, _, err := g.Apply(delta)
	if err != nil {
		return nil, err
	}
	patched := make([]*index.Index, len(ms))
	for i, m := range ms {
		patched[i] = parts[i].WithPatch(index.RematchDelta(ng, m, nil, nil))
	}
	final := ng.Compact()
	var got, want bytes.Buffer
	if err := index.Write(&got, index.Merge(patched...)); err != nil {
		return nil, err
	}
	if err := index.Write(&want, index.BuildParallel(ms, func() match.Matcher { return mkMatcher(final) }, 1)); err != nil {
		return nil, err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return nil, fmt.Errorf("update: incrementally patched index differs from the from-scratch build")
	}

	// Timings: patch every part incrementally vs re-match everything.
	var incBest, rebuildBest time.Duration
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, m := range ms {
			index.RematchDelta(ng, m, nil, nil)
		}
		if d := time.Since(t0); incBest == 0 || d < incBest {
			incBest = d
		}
		t0 = time.Now()
		index.BuildParallel(ms, func() match.Matcher { return mkMatcher(final) }, 1)
		if d := time.Since(t0); rebuildBest == 0 || d < rebuildBest {
			rebuildBest = d
		}
	}
	rep := &updateReport{
		Benchmark:     "incremental_update",
		Communities:   communities,
		Nodes:         g.NumNodes(),
		Edges:         g.NumEdges(),
		Metagraphs:    len(ms),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Reps:          reps,
		Timestamp:     time.Now().UTC(),
		IncrementalNs: incBest.Nanoseconds(),
		RebuildNs:     rebuildBest.Nanoseconds(),
		Speedup:       float64(rebuildBest) / float64(incBest),
	}
	fmt.Printf("update  incremental=%8.2fms rebuild=%8.2fms speedup=%.1fx (epoch %d, %d rematched)\n",
		float64(incBest.Nanoseconds())/1e6, float64(rebuildBest.Nanoseconds())/1e6, rep.Speedup, st.Epoch, st.Rematched)
	return rep, nil
}
