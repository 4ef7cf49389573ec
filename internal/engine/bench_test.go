package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/mining"
	"repro/internal/wal"
)

func benchDataset() *dataset.Dataset {
	return dataset.LinkedIn(dataset.Config{Users: 200, Seed: 1, NoiseRate: 0.05})
}

func benchIndex(b *testing.B) (*graph.Graph, *index.Index) {
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
		query := func(q graph.NodeID) ([]core.Ranked, error) { return eng.Query("college", q, 10) }
		if w != nil {
			cm := &classModel{w: w, dots: ix.NodeDots(w)}
			query = func(q graph.NodeID) ([]core.Ranked, error) { return rank(ix, cm, q, 10), nil }
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
			opts := defaultOptions()
			opts.Mining = mining.Options{MaxNodes: bc.maxNodes, MinSupport: 5}
			opts.Train.Restarts = 1
			opts.Train.MaxIters = 60
			eng, err := newEngine(ds.G, opts)
			if err != nil {
				b.Fatal(err)
			}
			labels := ds.Classes["college"]
			examples := eval.MakeExamples(labels, labels.Queries(), ds.Users(), 100, 1)
			base := eng.cur.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.cur.Store(base)
				if bc.dualK > 0 {
					trainDualStage(eng, "college", examples, bc.dualK)
				} else {
					eng.Train("college", examples)
				}
			}
			b.ReportMetric(float64(eng.MatchedCount()), "held/op")
			b.ReportMetric(float64(eng.NumMetagraphs()), "metagraphs/op")
		})
	}
}

// communityGraph builds a community-structured social graph: many small
// clusters of users sharing cluster-local schools, employers and hobbies.
// Unlike the synthetic LinkedIn generator (whose attribute nodes are hubs
// that put the whole graph within 4 hops), a delta here lands in one
// community; the hub sub-benchmark of BenchmarkApplyUpdate covers the
// other shape.
func communityGraph(communities, usersPer int) *graph.Graph {
	b := graph.NewBuilder()
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
// (ApplyUpdate: the graph grown flat, SymISO pinned at the new edges, the
// gains added into a flat index) against the only alternative the
// pre-update engine had: rebuilding the offline pipeline (mine → match →
// train) from scratch. Each delta adds one user to one community of a
// 60-community graph. The hub case is the shape that graph hides: a
// LinkedIn-like graph at MaxNodes 4 (the benchmark's lifecycle sizing)
// with every new user joining the highest-degree node, where a hop-bounded
// re-match covered the whole graph. read_direct, lifecycle and paper are
// snapShapes' engines with a new user joining college-0, as benchmark/'s
// update stream sends it, and read_direct_20000 is read_direct's shape at
// 20 000 users with the same update; paper_hub is the paper shape (2 000 users,
// MaxNodes 5, dozens of held metagraphs) with a new user joining the
// highest-degree node; -short skips the paper cases. The cases on one
// engine report the search nodes the re-match visited per update and apply
// every update to the same base epoch, so an iteration costs the same
// whatever b.N is.
func BenchmarkApplyUpdate(b *testing.B) {
	const communities, usersPer = 60, 10
	g := communityGraph(communities, usersPer)
	opts := defaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 5}
	opts.Train.Restarts = 1
	opts.Train.MaxIters = 60
	var examples []core.Example
	for c := 0; c < 10; c++ {
		examples = append(examples, core.Example{
			Q: g.NodeByName(fmt.Sprintf("user-%d-0", c)),
			X: g.NodeByName(fmt.Sprintf("user-%d-1", c)),
			Y: g.NodeByName(fmt.Sprintf("user-%d-2", (c+1)%communities)),
		})
	}
	build := func() *Engine {
		eng, err := newEngine(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		eng.Train("community", examples)
		return eng
	}

	// join is update i: a new user joins a school and its first user, the
	// community i picks.
	join := func(eng *Engine, i int) graph.Delta {
		fresh := graph.NodeID(eng.Graph().NumNodes())
		return graph.Delta{
			Nodes: []graph.DeltaNode{{Type: "user", Value: fmt.Sprintf("bench-user-%d", i)}},
			Edges: []graph.Edge{
				{U: fresh, V: g.NodeByName(fmt.Sprintf("school-%d", i%communities))},
				{U: fresh, V: g.NodeByName(fmt.Sprintf("user-%d-0", i%communities))},
			},
		}
	}
	// Each update applies to the same base epoch, so an op costs the same
	// whatever b.N is.
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
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build()
		}
	})
	// joins applies one new user joining node v of eng's serving epoch.
	joins := func(b *testing.B, eng *Engine, v graph.NodeID) {
		base := eng.cur.Load()
		d := graph.Delta{
			Nodes: []graph.DeltaNode{{Type: "user", Value: "bench-user"}},
			Edges: []graph.Edge{{U: graph.NodeID(base.g.NumNodes()), V: v}},
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
		eng, hub := hubEngine(b, 600)
		joins(b, eng, hub)
	})
	for _, sh := range snapShapes {
		b.Run(sh.name, func(b *testing.B) {
			eng, _ := snapshotBench(b, sh)
			joins(b, eng, eng.Graph().NodeByName("college-0"))
		})
	}
	b.Run(bigShape.name, func(b *testing.B) {
		if testing.Short() {
			b.Skip("building the 20 000-user engine takes seconds")
		}
		eng, _ := snapshotBench(b, bigShape)
		joins(b, eng, eng.Graph().NodeByName("college-0"))
	})
	b.Run("paper_hub", func(b *testing.B) {
		eng, _ := snapshotBench(b, snapShapes[2])
		g := eng.Graph()
		hub := graph.NodeID(0)
		for v := graph.NodeID(1); int(v) < g.NumNodes(); v++ {
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
			next := graph.NodeID(g.NumNodes())
			for i := 0; i < replayRecords; i++ {
				d := graph.Delta{
					Nodes: []graph.DeltaNode{{Type: "user", Value: fmt.Sprintf("replay-user-%d", i)}},
					Edges: []graph.Edge{{U: next + graph.NodeID(i), V: g.NodeByName(fmt.Sprintf("college-%d", i%5))}},
				}
				appendDurable(b, w, d)
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

// bigShape is read_direct at 20 000 users, four times the workload's size:
// what an update costs as the graph grows. -short skips it.
var bigShape = &snapShape{name: "read_direct_20000", users: 20000, maxNodes: 3}

// workloadShapes are the shapes of snapShapes that benchmark/'s workloads
// boot: read_direct and lifecycle.
func workloadShapes() []*snapShape { return snapShapes[:2] }

// build mines, matches and trains the shape's engine on the LinkedIn graph
// of the given seed: one class, college, learned from 100 examples with
// one restart of at most 60 iterations.
func (sh *snapShape) build(seed int64) *Engine {
	ds := dataset.LinkedIn(dataset.Config{Users: sh.users, Seed: seed, NoiseRate: 0.05})
	opts := defaultOptions()
	opts.Mining = mining.Options{MaxNodes: sh.maxNodes, MinSupport: 5}
	opts.Train.Restarts = 1
	opts.Train.MaxIters = 60
	eng, err := newEngine(ds.G, opts)
	if err != nil {
		panic(err)
	}
	labels := ds.Classes["college"]
	eng.Train("college", eval.MakeExamples(labels, labels.Queries(), ds.Users(), 100, seed))
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
