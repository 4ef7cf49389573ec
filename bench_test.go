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
	"repro/internal/wal"
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
// (the dominant cost of Table III) across worker counts. On multicore
// hardware the build scales near-linearly: matching fans out one metagraph
// per worker and the parts merge by offset. read_direct is the build the
// benchmark's 5 000-user workloads pay at bring-up (MaxNodes 3), and
// lifecycle the one its 600-user workload pays (MaxNodes 4, whose 3-leaf
// stars have six automorphic assignments per instance); lifecycle_2000 is
// that shape at 2 000 users, and paper_2000 the paper's MaxNodes 5 at
// 2 000 users (tens of seconds, so -short skips it). All run on one worker
// so that the figure is
// the work, not the machine's core count; each reports the instances
// counted per build and the pair keys the counter sorted for them (one per
// weight, not per instance, where SymISO hands it a set) next to the bytes
// and allocations counting them costs.
func BenchmarkOfflineIndexBuild(b *testing.B) {
	offline := func(users, maxNodes int) func(*testing.B) {
		return func(b *testing.B) {
			if maxNodes > 4 && testing.Short() {
				b.Skip("the MaxNodes 5 build takes tens of seconds")
			}
			ds := dataset.LinkedIn(dataset.Config{Users: users, Seed: 1, NoiseRate: 0.05})
			ms := mining.Metagraphs(mining.ProximityFilter(
				mining.Mine(ds.G, mining.Options{MaxNodes: maxNodes, MinSupport: 5}), ds.Anchor))
			matcher := match.NewSymISO(ds.G)
			var instances int64
			for _, m := range ms {
				instances += match.CountInstances(matcher, m)
			}
			keys := index.SortedPairKeys(ms, matcher)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ix := index.BuildParallel(ms, func() match.Matcher { return matcher }, 1); ix.NodeSpan() == 0 {
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
				ix := index.BuildParallel(ms,
					func() match.Matcher { return match.NewSymISO(ds.G) }, workers)
				if ix.NodeSpan() == 0 {
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
// term-at-a-time pass over the runs of the metagraphs the weights weigh,
// one allocation (the result). warm walks the users of a 200-user index in
// id order under uniform weights, so every run it reads is in cache — the
// scan's arithmetic and nothing else. The others rank a benchmark/
// workload's users in a seeded random order, so consecutive queries share
// no runs and the index does not stay in cache: uniform is what a daemon
// under the read mix pays (Engine.Query on the 5 000-user read_direct
// engine, whose learned w* weighs one of three metagraphs, the one its
// index holds); dense is the same engine with a class of UniformWeights
// installed, so that it holds and scans all three, skipping nothing; and
// lifecycle is Engine.Query on the 600-user MaxNodes-4 engine, whose w*
// weighs 10 of 12 metagraphs. Each reports candidates/op, the partners a
// scan scored.
func BenchmarkRankTop(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		g, ix := benchIndex(b)
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
	// scan ranks eng's users under the college class, or under w with its
	// own denominators when w is non-nil.
	scan := func(b *testing.B, eng *Engine, w []float64) {
		g := eng.Graph()
		users := slices.Clone(g.NodesOfType(g.Types().ID("user")))
		rand.New(rand.NewSource(1)).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
		ix := eng.cur.Load().ix
		query := func(q NodeID) ([]Ranked, error) { return eng.Query("college", q, 10) }
		if w != nil {
			cm := &classModel{w: w, dots: ix.NodeDots(w)}
			query = func(q NodeID) ([]Ranked, error) { return rank(ix, cm, q, 10), nil }
		} else {
			w = eng.Weights("college")
		}
		scanned := make([]int, len(users))
		for i, q := range users {
			_, scanned[i] = core.RankCandidates(ix, w, nil, q, 10)
		}
		candidates := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := query(users[i%len(users)])
			if err != nil || len(r) > 10 {
				b.Fatal("bad ranking", err)
			}
			candidates += scanned[i%len(users)]
		}
		b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
	}
	b.Run("uniform", func(b *testing.B) {
		eng, _ := snapshotBench(b, snapShapes[0])
		scan(b, eng, nil)
	})
	b.Run("dense", func(b *testing.B) {
		eng, _ := snapshotBench(b, snapShapes[0])
		full := &Engine{anchor: eng.anchor, opts: eng.opts, ms: eng.ms}
		full.cur.Store(eng.cur.Load())
		w := core.UniformWeights(full.NumMetagraphs())
		installPruned(full, "dense", every(full.NumMetagraphs()), w)
		scan(b, full, w)
	})
	b.Run("lifecycle", func(b *testing.B) {
		eng, _ := snapshotBench(b, snapShapes[1])
		scan(b, eng, nil)
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

// BenchmarkEngineTrain measures Engine.Train on a fresh engine, mining
// excluded: every iteration trains college from the same untrained epoch,
// with the options benchmark/ boots its engines with (100 examples, one
// restart of at most 60 iterations, one matching worker per CPU).
// read_direct and lifecycle are the shapes of benchmark/'s workloads
// (5 000 users at MaxNodes 3, 600 at MaxNodes 4); paper is 2 000 users at
// the paper's MaxNodes 5, where the metagraph set grows to dozens, and
// -short skips it. The _dual cases train the same class with
// TrainDualStage (Alg. 1) at K = 2 candidates instead. Each reports the
// metagraphs the trained epoch holds.
func BenchmarkEngineTrain(b *testing.B) {
	for _, bc := range []struct {
		name            string
		users, maxNodes int
		dualK           int // 0: Train
	}{
		{"read_direct", 5000, 3, 0}, {"lifecycle", 600, 4, 0}, {"paper", 2000, 5, 0},
		{"read_direct_dual", 5000, 3, 2}, {"lifecycle_dual", 600, 4, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.maxNodes > 4 && testing.Short() {
				b.Skip("training at MaxNodes 5 takes seconds")
			}
			ds := dataset.LinkedIn(dataset.Config{Users: bc.users, Seed: 1, NoiseRate: 0.05})
			opts := DefaultOptions()
			opts.Mining = mining.Options{MaxNodes: bc.maxNodes, MinSupport: 5}
			opts.Train.Restarts = 1
			opts.Train.MaxIters = 60
			eng, err := NewEngine(ds.G, "user", opts)
			if err != nil {
				b.Fatal(err)
			}
			labels := ds.Classes["college"]
			examples := MakeExamples(labels, labels.Queries(), ds.Users(), 100, 1)
			base := eng.cur.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.cur.Store(base)
				if bc.dualK > 0 {
					eng.TrainDualStage("college", examples, bc.dualK)
				} else {
					eng.Train("college", examples)
				}
			}
			b.ReportMetric(float64(eng.MatchedCount()), "held/op")
			b.ReportMetric(float64(eng.NumMetagraphs()), "metagraphs/op")
		})
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
// (ApplyUpdate: copy-on-write graph, SymISO pinned at the new edges, index row
// patching) against the only alternative the pre-update engine had:
// rebuilding the offline pipeline (mine → match → train) from scratch.
// Each delta adds one user to one community of a 60-community graph. The
// hub case is the shape that graph hides: a LinkedIn-like graph at
// MaxNodes 4 (the benchmark's lifecycle sizing) with every new user joining
// the highest-degree node, where a hop-bounded re-match covered the whole
// graph. paper and paper_hub are the paper shape (snapShapes' paper
// engine: 2 000 users, MaxNodes 5, dozens of held metagraphs): a new user
// joining college-0, as benchmark/'s update stream sends it, and a new
// user joining the highest-degree node; -short skips them. Those three
// report the search nodes the re-match visited per update and apply every
// update to the same base epoch, so an iteration costs the same whatever
// b.N is.
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

	// join is update i: a new user joins a school and its first user, the
	// community i picks.
	join := func(eng *Engine, i int) Delta {
		fresh := NodeID(eng.Graph().NumNodes())
		return Delta{
			Nodes: []DeltaNode{{Type: "user", Value: fmt.Sprintf("bench-user-%d", i)}},
			Edges: []Edge{
				{U: fresh, V: g.NodeByName(fmt.Sprintf("school-%d", i%communities))},
				{U: fresh, V: g.NodeByName(fmt.Sprintf("user-%d-0", i%communities))},
			},
		}
	}
	// Each update applies to the same base epoch, so an op costs the same
	// whatever b.N is; compacting one update is its own case.
	b.Run("incremental", func(b *testing.B) {
		eng := build()
		base := eng.cur.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.cur.Store(base)
			if _, err := eng.ApplyUpdate(join(eng, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		eng.cur.Store(base)
	})
	b.Run("compact", func(b *testing.B) {
		eng := build()
		base := eng.cur.Load()
		if _, err := eng.ApplyUpdate(join(eng, 0)); err != nil {
			b.Fatal(err)
		}
		updated := eng.cur.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.cur.Store(updated)
			eng.Compact()
		}
		b.StopTimer()
		eng.cur.Store(base)
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build()
		}
	})
	// joins applies one new user joining node v of eng's serving epoch.
	joins := func(b *testing.B, eng *Engine, v NodeID) {
		base := eng.cur.Load()
		d := Delta{
			Nodes: []DeltaNode{{Type: "user", Value: "bench-user"}},
			Edges: []Edge{{U: NodeID(base.g.NumNodes()), V: v}},
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
		b.StopTimer()
		eng.cur.Store(base)
		b.ReportMetric(float64(enumerated), "enumerated/op")
	}
	b.Run("hub", func(b *testing.B) {
		eng, hub := hubEngine(b, 600, false)
		joins(b, eng, hub)
	})
	paper := snapShapes[2]
	b.Run("paper", func(b *testing.B) {
		eng, _ := snapshotBench(b, paper)
		joins(b, eng, eng.Graph().NodeByName("college-0"))
	})
	b.Run("paper_hub", func(b *testing.B) {
		eng, _ := snapshotBench(b, paper)
		g := eng.Graph()
		hub := NodeID(0)
		for v := NodeID(1); int(v) < g.NumNodes(); v++ {
			if g.Degree(v) > g.Degree(hub) {
				hub = v
			}
		}
		joins(b, eng, hub)
	})
}

// BenchmarkReplayWAL times crash recovery's log replay at the shapes of
// benchmark/'s read_direct and lifecycle workloads: replayRecords logged
// single-user joins, each a new user joining one of five colleges,
// replayed by ReplayWAL into the engine of the pre-update snapshot (its
// epoch restored outside the timer, so an op costs the same whatever b.N
// is). It reports ns per replayed record. An op is sized at tens of ms:
// a smaller one does not resolve on a shared host.
func BenchmarkReplayWAL(b *testing.B) {
	const replayRecords = 512
	for _, sh := range workloadShapes() {
		b.Run(sh.name, func(b *testing.B) {
			eng, _ := snapshotBench(b, sh)
			g := eng.Graph()
			w, err := wal.Open(b.TempDir(), wal.Options{BaseLSN: eng.LSN()})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			next := NodeID(g.NumNodes())
			for i := 0; i < replayRecords; i++ {
				d := Delta{
					Nodes: []DeltaNode{{Type: "user", Value: fmt.Sprintf("replay-user-%d", i)}},
					Edges: []Edge{{U: next + NodeID(i), V: g.NodeByName(fmt.Sprintf("college-%d", i%5))}},
				}
				if _, err := w.Append(d); err != nil {
					b.Fatal(err)
				}
			}
			base := eng.cur.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				applied, _, err := ReplayWAL(eng, w)
				if err != nil || applied != replayRecords {
					b.Fatalf("replayed %d of %d records: %v", applied, replayRecords, err)
				}
				b.StopTimer()
				eng.cur.Store(base)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*replayRecords), "ns/record")
		})
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
	parts, _ := index.MatchParts(eng.ms, func() match.Matcher { return match.NewSymISO(g) }, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := index.Merge(parts...); ix.NumMeta() != len(parts) {
			b.Fatal("merge lost a metagraph")
		}
	}
}

// BenchmarkIndexCompact measures what makes a patched index servable
// again, at both shapes: one update as the benchmark's update stream sends
// it (a new user joining college-0) is applied to a freshly loaded engine,
// and each iteration folds that epoch's patch overlay into flat storage —
// the node rows merged, the replacement runs spliced into the flat ones —
// which leaves the result ready for ranked reads.
func BenchmarkIndexCompact(b *testing.B) {
	for _, sh := range snapShapes {
		b.Run(sh.name, func(b *testing.B) {
			_, snap := snapshotBench(b, sh)
			eng, err := LoadEngine(bytes.NewReader(snap))
			if err != nil {
				b.Fatal(err)
			}
			fresh := NodeID(eng.Graph().NumNodes())
			if _, err := eng.ApplyUpdate(Delta{
				Nodes: []DeltaNode{{Type: "user", Value: "bench-user"}},
				Edges: []Edge{{U: fresh, V: eng.Graph().NodeByName("college-0")}},
			}); err != nil {
				b.Fatal(err)
			}
			patched := eng.cur.Load().ix
			if !patched.Pending() {
				b.Fatal("the update left no patch to compact")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				patched.Compact()
			}
		})
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
// below it, as the runs a loaded engine serves from.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, sh := range snapShapes {
		b.Run(sh.name, func(b *testing.B) {
			_, snap := snapshotBench(b, sh)
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := LoadEngine(bytes.NewReader(snap)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(snap)), "snapshot_bytes")
		})
	}
}
