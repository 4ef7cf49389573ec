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
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/fixtures"
	"repro/internal/index"
	"repro/internal/match"
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
// These isolate the Fig. 11 comparison per engine.

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

func BenchmarkMatchBoostISO(b *testing.B) {
	benchMatcher(b, func(g *Graph) match.Matcher { return match.NewBoostISO(g) })
}

func BenchmarkMatchTurboISO(b *testing.B) {
	benchMatcher(b, func(g *Graph) match.Matcher { return match.NewTurboISO(g) })
}

func BenchmarkMatchQuickSI(b *testing.B) {
	benchMatcher(b, func(g *Graph) match.Matcher { return match.NewQuickSI(g) })
}

// BenchmarkOfflineIndexBuild measures the offline matching+indexing phase
// (the dominant cost of Table III) across worker counts. On multicore
// hardware the build scales near-linearly: matching fans out one metagraph
// per worker and the parts merge by offset. read_direct is the build the
// benchmark's 5 000-user workloads pay at bring-up (MaxNodes 3), on one
// worker so that the figure is the work, not the machine's core count; it
// reports the instances counted per build next to the bytes and
// allocations counting them costs.
func BenchmarkOfflineIndexBuild(b *testing.B) {
	b.Run("read_direct", func(b *testing.B) {
		ds := dataset.LinkedIn(dataset.Config{Users: 5000, Seed: 1, NoiseRate: 0.05})
		ms := mining.Metagraphs(mining.ProximityFilter(
			mining.Mine(ds.G, mining.Options{MaxNodes: 3, MinSupport: 5}), ds.Anchor))
		matcher := match.NewSymISO(ds.G)
		var instances int64
		for _, m := range ms {
			instances += match.CountInstances(matcher, m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ix := index.BuildParallel(ms, func() match.Matcher { return matcher }, 1); ix.NumPairs() == 0 {
				b.Fatal("empty index")
			}
		}
		b.ReportMetric(float64(instances), "instances/op")
	})
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
				ix := index.BuildParallel(ms,
					func() match.Matcher { return match.NewSymISO(ds.G) }, workers)
				if ix.NumPairs() == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

// ---- micro-benchmarks: online phase and learning ----

func benchIndex(b *testing.B) (*Graph, *index.Index) {
	b.Helper()
	ds := benchDataset()
	pats := mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	ms := mining.Metagraphs(pats)
	bld := index.NewBuilder(len(ms))
	matcher := match.NewSymISO(ds.G)
	for i, m := range ms {
		bld.AddMetagraph(i, m, matcher)
	}
	return ds.G, bld.Build()
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

// BenchmarkRankTop measures the online top-k scan behind /v1/query: one
// serial pass over the query's adjacency row, one allocation (the result).
// warm walks the users of a 200-user index in id order, so every row it
// reads is in cache — the scan's arithmetic and nothing else. uniform is
// what a daemon under the benchmark's read mix pays: Engine.Query on the
// 5 000-user read_direct engine with anchors in a seeded random order, so
// consecutive queries share no rows and the ~26 MB index does not stay in
// cache.
func BenchmarkRankTop(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		g, ix := benchIndex(b)
		ix.BuildAdjacency()
		w := core.UniformWeights(ix.NumMeta())
		users := g.NodesOfType(g.Types().ID("user"))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.RankTop(ix, w, users[i%len(users)], 10); len(r) > 10 {
				b.Fatal("k overflow")
			}
		}
	})
	b.Run("uniform", func(b *testing.B) {
		eng, _ := snapshotBench(b)
		g := eng.Graph()
		users := slices.Clone(g.NodesOfType(g.Types().ID("user")))
		rand.New(rand.NewSource(1)).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
		ix := eng.cur.Load().ix
		partners := make([]int, len(users))
		for i, q := range users {
			partners[i] = len(ix.Partners(q))
		}
		candidates := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := eng.Query("college", users[i%len(users)], 10)
			if err != nil || len(r) > 10 {
				b.Fatal("bad ranking", err)
			}
			candidates += partners[i%len(users)]
		}
		b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
	})
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

// BenchmarkTrain measures one full training run (Table III's training
// column at bench scale), on raw counts and through the log1p transform,
// which the index applies to every value as it is read.
func BenchmarkTrain(b *testing.B) {
	ds := benchDataset()
	g, ix := ds.G, (*index.Index)(nil)
	pats := mining.ProximityFilter(
		mining.Mine(g, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	ms := mining.Metagraphs(pats)
	bld := index.NewBuilder(len(ms))
	matcher := match.NewSymISO(g)
	for i, m := range ms {
		bld.AddMetagraph(i, m, matcher)
	}
	ix = bld.Build()
	labels := ds.Classes["college"]
	queries := labels.Queries()
	splits := eval.Splits(queries, 0.2, 1, 1)
	examples := eval.MakeExamples(labels, splits[0].Train, ds.Users(), 100, 1)
	opts := core.DefaultTrain()
	opts.Restarts = 1
	opts.MaxIters = 80
	for _, bc := range []struct {
		name string
		ix   *index.Index
	}{{"raw", ix}, {"log1p", ix.Transform(log1pCount)}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Train(bc.ix, examples, opts)
			}
		})
	}
}

// BenchmarkMining measures metagraph enumeration (Table III's mining
// column at bench scale).
func BenchmarkMining(b *testing.B) {
	ds := benchDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5})
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

// communityGraph builds a community-structured social graph: many small
// clusters of users sharing cluster-local schools, employers and hobbies.
// Unlike the synthetic LinkedIn generator (whose attribute nodes are hubs
// that put the whole graph within 4 hops), a delta here lands in one
// community; the hub sub-benchmark of BenchmarkApplyUpdate covers the
// other shape.
func communityGraph(communities, usersPer int) *Graph {
	b := NewGraphBuilder()
	for _, tn := range []string{"user", "school", "employer", "hobby"} {
		b.Types().Register(tn)
	}
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < communities; c++ {
		school := b.AddNodeOnce("school", fmt.Sprintf("school-%d", c))
		emp := b.AddNodeOnce("employer", fmt.Sprintf("employer-%d", c))
		hob := b.AddNodeOnce("hobby", fmt.Sprintf("hobby-%d", c))
		for u := 0; u < usersPer; u++ {
			user := b.AddNode("user", fmt.Sprintf("user-%d-%d", c, u))
			b.AddEdge(user, school)
			if rng.Intn(2) == 0 {
				b.AddEdge(user, emp)
			}
			if rng.Intn(2) == 0 {
				b.AddEdge(user, hob)
			}
		}
	}
	return b.MustBuild()
}

// BenchmarkApplyUpdate compares serving a graph mutation incrementally
// (ApplyUpdate: copy-on-write graph, delta-seeded re-match, index row
// patching) against the only alternative the pre-update engine had:
// rebuilding the offline pipeline (mine → match → train) from scratch.
// Each delta adds one user to one community of a 60-community graph. The
// hub case is the shape that graph hides: a LinkedIn-like graph at
// MaxNodes 4 (the benchmark's lifecycle sizing) with every new user joining
// the highest-degree node, where a hop-bounded re-match covered the whole
// graph; it reports the assignments the re-match visited per update and
// applies every update to the same base epoch, so an iteration costs the
// same whatever b.N is.
func BenchmarkApplyUpdate(b *testing.B) {
	const communities, usersPer = 60, 10
	g := communityGraph(communities, usersPer)
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 5}
	opts.Train.Restarts = 1
	opts.Train.MaxIters = 60
	var examples []Example
	for c := 0; c < 10; c++ {
		examples = append(examples, Example{
			Q: g.NodeByName(fmt.Sprintf("user-%d-0", c)),
			X: g.NodeByName(fmt.Sprintf("user-%d-1", c)),
			Y: g.NodeByName(fmt.Sprintf("user-%d-2", (c+1)%communities)),
		})
	}
	build := func() *Engine {
		eng, err := NewEngine(g, "user", opts)
		if err != nil {
			b.Fatal(err)
		}
		eng.Train("community", examples)
		return eng
	}

	b.Run("incremental", func(b *testing.B) {
		eng := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh := NodeID(eng.Graph().NumNodes())
			_, err := eng.ApplyUpdate(Delta{
				Nodes: []DeltaNode{{Type: "user", Value: fmt.Sprintf("bench-user-%d", i)}},
				Edges: []Edge{
					{U: fresh, V: g.NodeByName(fmt.Sprintf("school-%d", i%communities))},
					{U: fresh, V: g.NodeByName(fmt.Sprintf("user-%d-0", i%communities))},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			eng.Compact()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build()
		}
	})
	b.Run("hub", func(b *testing.B) {
		eng, hub := hubEngine(b, 600, false)
		base := eng.cur.Load()
		d := Delta{
			Nodes: []DeltaNode{{Type: "user", Value: "bench-user"}},
			Edges: []Edge{{U: NodeID(base.g.NumNodes()), V: hub}},
		}
		var enumerated int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.cur.Store(base)
			st, err := eng.ApplyUpdate(d)
			if err != nil {
				b.Fatal(err)
			}
			enumerated = st.Enumerated
		}
		b.ReportMetric(float64(enumerated), "enumerated/op")
	})
}

// ---- snapshot codec ----

var (
	snapBenchOnce  sync.Once
	snapBenchEng   *Engine
	snapBenchBytes []byte
)

// snapshotBench builds (once) the engine benchmark/'s read_direct workload
// boots — 5 000 LinkedIn users, MaxNodes 3, one trained class — and its
// snapshot, so restart-to-serving is measured at the size the daemons pay.
func snapshotBench(b *testing.B) (*Engine, []byte) {
	b.Helper()
	snapBenchOnce.Do(func() {
		ds := dataset.LinkedIn(dataset.Config{Users: 5000, Seed: 1, NoiseRate: 0.05})
		opts := DefaultOptions()
		opts.Mining = mining.Options{MaxNodes: 3, MinSupport: 5}
		opts.Train.Restarts = 1
		opts.Train.MaxIters = 60
		eng, err := NewEngine(ds.G, "user", opts)
		if err != nil {
			panic(err)
		}
		labels := ds.Classes["college"]
		eng.Train("college", MakeExamples(labels, labels.Queries(), ds.Users(), 100, 1))
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			panic(err)
		}
		snapBenchEng, snapBenchBytes = eng, buf.Bytes()
	})
	return snapBenchEng, snapBenchBytes
}

// BenchmarkIndexMerge measures index.Merge at the read_direct size: the
// three single-metagraph parts of the 5 000-user engine (≈ 650 k pair rows
// between them) into one index — what every first Train pays after
// matching, and the benchmark's index.build_s beyond the match itself.
func BenchmarkIndexMerge(b *testing.B) {
	eng, _ := snapshotBench(b)
	g := eng.Graph()
	parts, _ := index.MatchParts(eng.ms, func() match.Matcher { return match.NewSymISO(g) }, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := index.Merge(parts...); ix.NumMeta() != len(parts) {
			b.Fatal("merge lost a metagraph")
		}
	}
}

// BenchmarkSnapshotSave measures Engine.Save into memory: the codec alone,
// no disk.
func BenchmarkSnapshotSave(b *testing.B) {
	eng, snap := snapshotBench(b)
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
}

// BenchmarkSnapshotLoad measures LoadEngine from memory, including the
// adjacency build that makes the loaded engine ready to serve.
func BenchmarkSnapshotLoad(b *testing.B) {
	_, snap := snapshotBench(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadEngine(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}
