package semprox

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// One benchmark per table and figure of the paper's evaluation (Sect. V),
// each regenerating the corresponding report through the experiment
// harness at bench scale, plus micro-benchmarks for the hot paths
// (matching engines, proximity evaluation, training). Run
// cmd/experiments for the full-size reports.

// benchConfig is the reduced scale used inside benchmarks.
func benchConfig() experiments.Config {
	tr := core.DefaultTrain()
	tr.Restarts = 1
	tr.MaxIters = 80
	return experiments.Config{
		LinkedInUsers: 200,
		FacebookUsers: 150,
		Seed:          1,
		Splits:        1,
		ExampleSizes:  []int{10, 100},
		TrainExamples: 100,
		TopK:          10,
		Train:         tr,
		Mining:        mining.Options{MaxNodes: 4, MinSupport: 5},
	}
}

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

// sharedSuite returns a suite with pre-built pipelines so individual
// benchmarks measure their experiment, not dataset construction.
func sharedSuite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(benchConfig())
		for _, name := range benchSuite.DatasetNames() {
			benchSuite.Pipeline(name)
		}
	})
	return benchSuite
}

func BenchmarkTable2DatasetPrep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if rep := s.Table2(); len(rep.Rows) != 2 {
			b.Fatal("bad Table II")
		}
	}
}

func BenchmarkFig4WeightSparsity(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Fig4(); len(rep.Rows) == 0 {
			b.Fatal("bad Fig. 4")
		}
	}
}

func BenchmarkFig6AccuracyNDCG(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Fig6(); len(rep.Rows) == 0 {
			b.Fatal("bad Fig. 6")
		}
	}
}

func BenchmarkFig7AccuracyMAP(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Fig7(); len(rep.Rows) == 0 {
			b.Fatal("bad Fig. 7")
		}
	}
}

func BenchmarkTable3TimeCosts(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Table3(); len(rep.Rows) != 2 {
			b.Fatal("bad Table III")
		}
	}
}

func BenchmarkFig8DualStage(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Fig8(); len(rep.Rows) == 0 {
			b.Fatal("bad Fig. 8")
		}
	}
}

func BenchmarkFig9SSFSCorrelation(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Fig9(); len(rep.Rows) == 0 {
			b.Fatal("bad Fig. 9")
		}
	}
}

func BenchmarkFig10CHvsRCH(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Fig10(); len(rep.Rows) == 0 {
			b.Fatal("bad Fig. 10")
		}
	}
}

func BenchmarkFig11MatchingEngines(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Fig11(); len(rep.Rows) == 0 {
			b.Fatal("bad Fig. 11")
		}
	}
}

// ---- micro-benchmarks: per-engine matching cost on one dataset ----
// These isolate the Fig. 11 comparison per engine; the baselines'
// benchmarks run the same recipe in internal/experiments.

func benchDataset() *dataset.Dataset {
	return dataset.LinkedIn(dataset.Config{Users: 200, Seed: 1, NoiseRate: 0.05})
}

func benchMatcher(b *testing.B, mk func(*Graph) match.Matcher) {
	b.Helper()
	ds := benchDataset()
	pats := mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	ms := mining.Metagraphs(pats)
	if len(ms) == 0 {
		b.Fatal("no metagraphs")
	}
	eng := mk(ds.G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			eng.Match(m, func([]NodeID) bool { return true })
		}
	}
}

func BenchmarkMatchSymISO(b *testing.B) {
	benchMatcher(b, func(g *Graph) match.Matcher { return match.NewSymISO(g) })
}

func BenchmarkMatchSymISOR(b *testing.B) {
	benchMatcher(b, func(g *Graph) match.Matcher { return match.NewSymISOR(g, 1) })
}

// BenchmarkOfflineIndexBuild measures the offline matching+indexing phase
// (the dominant cost of Table III) as an engine runs it: index.Count, which
// serves every two-edge metapath from the graph and counts every other
// metagraph by SymISO, the parts merged. read_direct is the build the
// benchmark's 5 000-user workloads pay at bring-up (MaxNodes 3: three
// two-edge metapaths, so nothing is searched or counted), and lifecycle
// the one its 600-user workload pays (MaxNodes 4, whose 3-leaf stars have
// six automorphic assignments per instance); lifecycle_2000 is that shape
// at 2 000 users, and paper_2000 the paper's MaxNodes 5 at 2 000 users
// (tens of seconds, so -short skips it). All run with GOMAXPROCS 1, so
// that Count's fan-out is one worker and the figure is the work, not the
// machine's core count; each reports the instances SymISO counts per build
// and the pair keys the counter sorts for them (one per weight, not per
// instance, where SymISO hands it a set) next to the bytes and allocations
// counting them costs. SymISO over every metagraph, two-edge metapaths
// included, is BenchmarkMatchSymISO's and the workers= cases' below.
func BenchmarkOfflineIndexBuild(b *testing.B) {
	offline := func(users, maxNodes int) func(*testing.B) {
		return func(b *testing.B) {
			if maxNodes > 4 && testing.Short() {
				b.Skip("the MaxNodes 5 build takes tens of seconds")
			}
			ds := dataset.LinkedIn(dataset.Config{Users: users, Seed: 1, NoiseRate: 0.05})
			ms := mining.Metagraphs(mining.ProximityFilter(
				mining.Mine(ds.G, mining.Options{MaxNodes: maxNodes, MinSupport: 5}), ds.Anchor))
			var searched []*metagraph.Metagraph
			for _, m := range ms {
				if !index.IsTwoEdgeMetapath(m) {
					searched = append(searched, m)
				}
			}
			matcher := match.NewSymISO(ds.G)
			var instances int64
			for _, m := range searched {
				instances += match.CountInstances(matcher, m)
			}
			keys := index.SortedPairKeys(searched, matcher)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ix := index.Merge(index.Count(ds.G, ms)...); ix.NodeSpan() == 0 {
					b.Fatal("empty index")
				}
			}
			b.ReportMetric(float64(instances), "instances/op")
			b.ReportMetric(float64(keys), "keys/op")
		}
	}
	b.Run("read_direct", offline(5000, 3))
	b.Run("lifecycle", offline(600, 4))
	b.Run("lifecycle_2000", offline(2000, 4))
	b.Run("paper_2000", offline(2000, 5))
	ds := benchDataset()
	pats := mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	ms := mining.Metagraphs(pats)
	if len(ms) == 0 {
		b.Fatal("no metagraphs")
	}
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts, _ := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(ds.G) }, workers)
				if ix := index.Merge(parts...); ix.NodeSpan() == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

// BenchmarkTwoEdgeMetapath is read_direct's one held metagraph,
// user–college–user on the 5 000-user LinkedIn graph, both ways an index
// can hold it. symiso counts it into runs with MatchParts on one worker —
// SymISO's instance search, the counter's sort and the layout — and reports
// the postings the part holds. rank_graph and rank_runs rank every user,
// in a seeded random order, under weight 1 on the part index.Count hands
// an engine, which reads each row from the graph's common neighbours, and
// on the runs SymISO counted: the same scores, bit for bit, and what the
// graph costs a ranked read. Each reports candidates/op.
func BenchmarkTwoEdgeMetapath(b *testing.B) {
	ds := dataset.LinkedIn(dataset.Config{Users: 5000, Seed: 1, NoiseRate: 0.05})
	user, college := ds.G.Types().ID("user"), ds.G.Types().ID("college")
	m := metagraph.MustNew([]graph.TypeID{user, college, user}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	symiso := func() *index.Index {
		parts, _ := index.MatchParts([]*metagraph.Metagraph{m}, func() match.Matcher { return match.NewSymISO(ds.G) }, 1)
		return parts[0]
	}
	b.Run("symiso", func(b *testing.B) {
		b.ReportAllocs()
		var p *index.Index
		for i := 0; i < b.N; i++ {
			p = symiso()
		}
		b.ReportMetric(float64(2*p.NumPairs()), "postings/op")
	})
	users := slices.Clone(ds.G.NodesOfType(user))
	rand.New(rand.NewSource(1)).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	w := []float64{1}
	for _, bc := range []struct {
		name string
		ix   *index.Index
	}{
		{"rank_graph", index.Count(ds.G, []*metagraph.Metagraph{m})[0]},
		{"rank_runs", symiso()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dots := bc.ix.NodeDots(w)
			candidates := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, n := core.RankCandidates(bc.ix, w, dots, users[i%len(users)], 10)
				candidates += n
			}
			b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
		})
	}
}

// ---- micro-benchmarks: online phase and learning ----

func benchIndex(b *testing.B) (*Graph, *index.Index) {
	b.Helper()
	ds := benchDataset()
	pats := mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	return ds.G, index.Merge(index.Count(ds.G, mining.Metagraphs(pats))...)
}

// BenchmarkOnlineQuery measures the online phase of Table III: one ranked
// query against precomputed vectors.
func BenchmarkOnlineQuery(b *testing.B) {
	g, ix := benchIndex(b)
	w := core.UniformWeights(ix.NumMeta())
	users := g.NodesOfType(g.Types().ID("user"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Rank(ix, w, users[i%len(users)])
	}
}

// BenchmarkSparseVecDot measures the innermost online-phase loop: one
// sparse·dense dot product. Must report 0 allocs/op (also asserted by
// TestZeroAllocReads in internal/index).
func BenchmarkSparseVecDot(b *testing.B) {
	g, ix := benchIndex(b)
	w := core.UniformWeights(ix.NumMeta())
	users := g.NodesOfType(g.Types().ID("user"))
	var v index.SparseVec
	for _, u := range users {
		if nv := ix.NodeVec(u); nv.Len() > v.Len() {
			v = nv
		}
	}
	if v.Len() == 0 {
		b.Fatal("no node vectors")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += v.Dot(w)
	}
	_ = s
}

// BenchmarkIndexNodeVec measures one keyed read out of the CSR index.
// Must report 0 allocs/op.
func BenchmarkIndexNodeVec(b *testing.B) {
	g, ix := benchIndex(b)
	users := g.NodesOfType(g.Types().ID("user"))
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n += ix.NodeVec(users[i%len(users)]).Len()
	}
	_ = n
}

// BenchmarkProximityEval measures a single π(x, y) evaluation.
func BenchmarkProximityEval(b *testing.B) {
	g, ix := benchIndex(b)
	w := core.UniformWeights(ix.NumMeta())
	users := g.NodesOfType(g.Types().ID("user"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Proximity(ix, w, users[i%len(users)], users[(i+7)%len(users)])
	}
}

// BenchmarkMining measures metagraph enumeration (Table III's mining
// column) at bench scale and at the lifecycle workload's shape (600 users,
// MaxNodes 4, MinSupport 5), where mining is the largest bring-up stage.
// Support evaluation fans out over GOMAXPROCS.
func BenchmarkMining(b *testing.B) {
	for _, bc := range []struct {
		name  string
		users int
	}{{"bench", 200}, {"lifecycle", 600}} {
		b.Run(bc.name, func(b *testing.B) {
			ds := dataset.LinkedIn(dataset.Config{Users: bc.users, Seed: 1, NoiseRate: 0.05})
			var pats []mining.Pattern
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pats = mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5})
			}
			b.ReportMetric(float64(len(pats)), "patterns/op")
		})
	}
}

// BenchmarkEngineEndToEnd measures the full public-API flow on the toy
// graph: mine, train, query.
func BenchmarkEngineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := fixtures.Toy()
		opts := DefaultOptions()
		opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
		opts.Train.Restarts = 1
		opts.Train.MaxIters = 60
		eng, err := NewEngine(g, "user", opts)
		if err != nil {
			b.Fatal(err)
		}
		eng.Train("classmate", []Example{
			{Q: g.NodeByName("Kate"), X: g.NodeByName("Jay"), Y: g.NodeByName("Alice")},
		})
		if _, err := eng.Query("classmate", g.NodeByName("Kate"), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- snapshot codec ----

// snapShape is one engine shape — read_direct (5 000 LinkedIn users,
// MaxNodes 3: three metagraphs, counts nearly all 1) and lifecycle (600
// users, MaxNodes 4: twelve metagraphs, about half the counts above 1),
// the shapes of benchmark/'s workloads, and paper (2 000 users at the
// paper's MaxNodes 5, the engine BenchmarkEngineTrain/paper trains, which
// holds dozens of metagraphs; -short skips it) — with the engine and
// snapshot built for it once.
type snapShape struct {
	name            string
	users, maxNodes int

	once sync.Once
	eng  *Engine
	snap []byte
}

var snapShapes = []*snapShape{
	{name: "read_direct", users: 5000, maxNodes: 3},
	{name: "lifecycle", users: 600, maxNodes: 4},
	{name: "paper", users: 2000, maxNodes: 5},
}

// workloadShapes are the shapes of snapShapes that benchmark/'s workloads
// boot: read_direct and lifecycle.
func workloadShapes() []*snapShape { return snapShapes[:2] }

// build mines, matches and trains the shape's engine on the LinkedIn graph
// of the given seed: one class, college, learned from 100 examples with
// one restart of at most 60 iterations.
func (sh *snapShape) build(seed int64) *Engine {
	ds := dataset.LinkedIn(dataset.Config{Users: sh.users, Seed: seed, NoiseRate: 0.05})
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: sh.maxNodes, MinSupport: 5}
	opts.Train.Restarts = 1
	opts.Train.MaxIters = 60
	eng, err := NewEngine(ds.G, "user", opts)
	if err != nil {
		panic(err)
	}
	labels := ds.Classes["college"]
	eng.Train("college", MakeExamples(labels, labels.Queries(), ds.Users(), 100, seed))
	return eng
}

// snapshotBench builds (once per shape) the engine a benchmark/ workload
// boots — one trained class — and its snapshot, so restart-to-serving is
// measured at the size the daemons pay.
func snapshotBench(b *testing.B, sh *snapShape) (*Engine, []byte) {
	b.Helper()
	if sh.maxNodes > 4 && testing.Short() {
		b.Skip("building the engine at MaxNodes 5 takes seconds")
	}
	sh.once.Do(func() {
		eng := sh.build(1)
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			panic(err)
		}
		sh.eng, sh.snap = eng, buf.Bytes()
	})
	return sh.eng, sh.snap
}

// BenchmarkIndexMerge measures index.Merge at the read_direct size: the
// three single-metagraph parts of the 5 000-user engine (≈ 650 k pair rows
// between them) into one index — the benchmark's index.build_s beyond the
// match itself. The parts come out of MatchParts with their runs laid out,
// outside the timer, so this is the merge alone; BenchmarkOfflineIndexBuild
// times the whole build. Train adds only the parts its w* weighs, one at
// read_direct, at slot 0, whose runs AddParts shares instead of copying.
func BenchmarkIndexMerge(b *testing.B) {
	eng, _ := snapshotBench(b, snapShapes[0])
	g := eng.Graph()
	parts, _ := index.MatchParts(eng.Metagraphs(), func() match.Matcher { return match.NewSymISO(g) }, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := index.Merge(parts...); ix.NumMeta() != len(parts) {
			b.Fatal("merge lost a metagraph")
		}
	}
}

// BenchmarkSnapshotSave measures Engine.Save into memory at both shapes:
// the codec alone, no disk. snapshot_bytes is the size it writes.
func BenchmarkSnapshotSave(b *testing.B) {
	for _, sh := range snapShapes {
		b.Run(sh.name, func(b *testing.B) {
			eng, snap := snapshotBench(b, sh)
			var buf bytes.Buffer
			buf.Grow(len(snap))
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := eng.Save(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(snap)), "snapshot_bytes")
		})
	}
}

// BenchmarkSnapshotLoad measures LoadEngine from memory at both shapes,
// including laying out the decoded runs above each node, with the partners
// below it, as the runs a loaded engine serves from. Each load allocates
// megabytes the one before it left as garbage, so the heap is collected
// with the timer stopped before every load: the figure is the load's, not
// how much of the last one's garbage the collector happened to sweep
// inside it.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, sh := range snapShapes {
		b.Run(sh.name, func(b *testing.B) {
			_, snap := snapshotBench(b, sh)
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if _, err := LoadEngine(bytes.NewReader(snap)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(snap)), "snapshot_bytes")
		})
	}
}
