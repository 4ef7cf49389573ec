package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dualstage"
	"repro/internal/eval"
	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/metagraph"
	"repro/internal/mining"
	"repro/internal/wal"
)

// The tests of this package build engines the way the root package's
// NewEngine and TrainDualStage do; they cannot import it, which imports
// this package.

// defaultOptions is the root package's DefaultOptions.
func defaultOptions() Options {
	return Options{Mining: mining.DefaultOptions(), Train: core.DefaultTrain()}
}

// newEngine is the root package's NewEngine with "user" as the anchor type:
// mine g, keep the metagraphs with a symmetric pair of users, and New.
func newEngine(g *graph.Graph, opts Options) (*Engine, error) {
	anchor := g.Types().ID("user")
	if anchor == graph.InvalidType {
		return nil, fmt.Errorf("no user type")
	}
	return New(g, anchor, mining.Metagraphs(mining.ProximityFilter(mining.Mine(g, opts.Mining), anchor)), opts), nil
}

// trainDualStage is the root package's TrainDualStage: Alg. 1 through Fit.
func trainDualStage(e *Engine, class string, examples []core.Example, numCandidates int) {
	e.Fit(class, func(ms []*metagraph.Metagraph, train core.TrainOptions, match func([]int) *index.Index) ([]int, *core.Model) {
		opts := dualstage.Default(numCandidates)
		opts.Train = train
		res := dualstage.Run(ms, match, examples, opts)
		return res.Kept, res.Model
	})
}

// toyEngine builds an engine over the paper's toy graph with mining
// parameters loose enough to find M1–M4-style patterns.
func toyEngine(t testing.TB) (*Engine, *graph.Graph) {
	t.Helper()
	g := fixtures.Toy()
	opts := defaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
	opts.Train.Restarts = 2
	opts.Train.MaxIters = 200
	eng, err := newEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, g
}

func classmateExamples(g *graph.Graph) []core.Example {
	return []core.Example{
		{Q: g.NodeByName("Kate"), X: g.NodeByName("Jay"), Y: g.NodeByName("Alice")},
		{Q: g.NodeByName("Bob"), X: g.NodeByName("Tom"), Y: g.NodeByName("Alice")},
	}
}

// familyExamples is a second semantic class on the toy graph.
func familyExamples(g *graph.Graph) []core.Example {
	return []core.Example{{Q: g.NodeByName("Alice"), X: g.NodeByName("Bob"), Y: g.NodeByName("Tom")}}
}

// every is the kept set of a class over all n metagraphs.
func every(n int) []int {
	kept := make([]int, n)
	for i := range kept {
		kept[i] = i
	}
	return kept
}

// randomToyDelta grows the toy graph with users, attributes and edges.
func randomToyDelta(rng *rand.Rand, numNodes int, tag string) graph.Delta {
	var d graph.Delta
	types := []string{"user", "school", "hobby", "employer"}
	for i := rng.Intn(3); i > 0; i-- {
		d.Nodes = append(d.Nodes, graph.DeltaNode{
			Type:  types[rng.Intn(len(types))],
			Value: fmt.Sprintf("%s-%d", tag, i),
		})
	}
	total := numNodes + len(d.Nodes)
	for i := 1 + rng.Intn(6); i > 0; i-- {
		d.Edges = append(d.Edges, graph.Edge{U: graph.NodeID(rng.Intn(total)), V: graph.NodeID(rng.Intn(total))})
	}
	return d
}

// assertEngineEquivalent checks that two engines answer every query,
// proximity and weight read byte-identically.
func assertEngineEquivalent(t *testing.T, got, want *Engine, tag string) {
	t.Helper()
	g := want.Graph()
	if gotG := got.Graph(); gotG.NumNodes() != g.NumNodes() || gotG.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: graph %v vs %v", tag, gotG, g)
	}
	classes := want.Classes()
	if !reflect.DeepEqual(got.Classes(), classes) {
		t.Fatalf("%s: classes %v vs %v", tag, got.Classes(), classes)
	}
	users := g.NodesOfType(g.Types().ID("user"))
	for _, class := range classes {
		if !reflect.DeepEqual(got.Weights(class), want.Weights(class)) {
			t.Fatalf("%s: weights of %q differ", tag, class)
		}
		for _, q := range users {
			for _, k := range []int{0, 3} {
				a, errA := got.Query(class, q, k)
				b, errB := want.Query(class, q, k)
				if (errA != nil) != (errB != nil) {
					t.Fatalf("%s: query error mismatch: %v vs %v", tag, errA, errB)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: class %q k=%d query %d:\n got %v\nwant %v", tag, class, k, q, a, b)
				}
			}
		}
		for _, x := range users {
			for _, y := range users {
				a, _ := got.Proximity(class, x, y)
				b, _ := want.Proximity(class, x, y)
				if a != b {
					t.Fatalf("%s: proximity(%d,%d) = %v, want %v", tag, x, y, a, b)
				}
			}
		}
	}
}

// assertHoldsWeighed checks that eng holds exactly the metagraphs some class
// weighs: MatchedCount is the size of the union of the classes' non-zero
// weights, and the index has rows of those metagraphs and of no other.
func assertHoldsWeighed(t *testing.T, eng *Engine) {
	t.Helper()
	weighed := make([]bool, eng.NumMetagraphs())
	n := 0
	for _, class := range eng.Classes() {
		for i, w := range eng.Weights(class) {
			if w != 0 && !weighed[i] {
				weighed[i] = true
				n++
			}
		}
	}
	if got := eng.MatchedCount(); got != n {
		t.Fatalf("holds %d metagraphs; the classes weigh %d", got, n)
	}
	if support := eng.cur.Load().ix.MetaSupport(); !slices.Equal(support, weighed) {
		t.Fatalf("index has rows of metagraphs %v; the classes weigh %v", support, weighed)
	}
}

// saveLoad round-trips an engine through the snapshot format.
func saveLoad(t *testing.T, eng *Engine) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// rebuildFromScratch builds a reference engine on the final graph: same
// metagraph set, same trained weights (the paper's w* weighs metagraph
// features, so a graph delta does not retrain), but every matched
// metagraph re-matched from scratch on the final graph and the
// index merged afresh. ApplyUpdate must be indistinguishable from it.
func rebuildFromScratch(t testing.TB, e *Engine) *Engine {
	t.Helper()
	ep := e.cur.Load()
	e2 := &Engine{anchor: e.anchor, opts: e.opts, ms: e.ms}
	g := ep.g
	var slots []int
	for i, ok := range ep.matched {
		if ok {
			slots = append(slots, i)
		}
	}
	ix, matched := e2.matchMissing(g, index.NewBuilder(len(e.ms)).Build(), make([]bool, len(e.ms)), slots)
	nep := &epoch{g: g, ix: ix, matched: matched, classes: make(map[string]*classModel, len(ep.classes)), version: ep.version}
	for name, cm := range ep.classes {
		nep.classes[name] = newClass(len(e.ms), cm.kept, cm.model)
	}
	e2.publish(nep)
	return e2
}

// checkDenominators holds every class of the serving epoch to what the
// denominators are defined as: bit for bit the m_v·w a recompute over the
// epoch's index gives, and the one an engine rebuilt from scratch on
// the same graph derives — and Engine.Query, which adds them up, to
// core.RankTop, which evaluates every node row, on the same epoch.
func checkDenominators(t *testing.T, e *Engine, tag string) {
	t.Helper()
	ep := e.cur.Load()
	scratch := rebuildFromScratch(t, e).cur.Load()
	bits := func(dots []float64) []uint64 {
		out := make([]uint64, len(dots))
		for i, d := range dots {
			out[i] = math.Float64bits(d)
		}
		return out
	}
	if len(ep.classes) == 0 {
		t.Fatalf("%s: no trained class", tag)
	}
	for name, cm := range ep.classes {
		if cm.dots == nil {
			t.Fatalf("%s: class %q published without denominators", tag, name)
		}
		got := bits(cm.dots)
		if want := bits(ep.ix.NodeDots(cm.w)); !slices.Equal(got, want) {
			t.Fatalf("%s: class %q carries denominators %v, recomputed %v", tag, name, cm.dots, ep.ix.NodeDots(cm.w))
		}
		if want := bits(scratch.ix.NodeDots(cm.w)); !slices.Equal(got, want) {
			t.Fatalf("%s: class %q carries denominators that differ from a from-scratch engine's", tag, name)
		}
		for q := graph.NodeID(-1); int(q) <= ep.g.NumNodes(); q++ {
			for _, k := range []int{0, 3} {
				got, err := e.Query(name, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := core.RankTop(ep.ix, cm.w, q, k); !slices.Equal(got, want) {
					t.Fatalf("%s: class %q query %d k=%d: engine %v, RankTop %v", tag, name, q, k, got, want)
				}
			}
		}
	}
}

// hubEngine trains one class on a small LinkedIn-shaped graph, whose
// college, employer and location nodes are hubs, and returns the engine
// with the graph's highest-degree node.
func hubEngine(t testing.TB, users int) (*Engine, graph.NodeID) {
	t.Helper()
	ds := dataset.LinkedIn(dataset.Config{Users: users, Seed: 4, NoiseRate: 0.05})
	opts := defaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 5}
	opts.Train.Restarts, opts.Train.MaxIters = 1, 40
	eng, err := newEngine(ds.G, opts)
	if err != nil {
		t.Fatal(err)
	}
	labels := ds.Classes["college"]
	eng.Train("college", eval.MakeExamples(labels, labels.Queries(), ds.Users(), 30, 4))
	if eng.MatchedCount() == 0 {
		t.Fatalf("no metagraphs mined at %d users", users)
	}
	hub := graph.NodeID(0)
	for v := graph.NodeID(1); int(v) < ds.G.NumNodes(); v++ {
		if ds.G.Degree(v) > ds.G.Degree(hub) {
			hub = v
		}
	}
	return eng, hub
}

// sharedSchool is an engine over fixtures.SharedSchool and its one
// metagraph, the user–user–school triangle, trained so that it is matched,
// with its snapshot. Every count of its index is 1: m_A, m_B and m_AB of
// the triangle.
func sharedSchool(t *testing.T) (snap []byte, a, b graph.NodeID) {
	t.Helper()
	g, a, b, c := fixtures.SharedSchool()
	opts := defaultOptions()
	opts.Train.Restarts, opts.Train.MaxIters = 1, 5
	eng := New(g, g.Types().ID("user"), fixtures.SharedSchoolMetagraphs(g), opts)
	eng.Train("peers", []core.Example{{Q: a, X: b, Y: c}})
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), a, b
}

// newSchools enrols users a and b at n new schools: n new instances of the
// user–user–school triangle for m_a, m_b and m_ab.
func newSchools(g *graph.Graph, n int, a, b graph.NodeID) graph.Delta {
	var d graph.Delta
	for i := 0; i < n; i++ {
		s := graph.NodeID(g.NumNodes() + i)
		d.Nodes = append(d.Nodes, graph.DeltaNode{Type: "school", Value: fmt.Sprintf("new-%d", i)})
		d.Edges = append(d.Edges, graph.Edge{U: a, V: s}, graph.Edge{U: b, V: s})
	}
	return d
}

// installUnpruned installs a class on e the way an engine did before
// training dropped the metagraphs no class weighs: every metagraph matched
// (matchMissing), the class keeping all it was trained on, zero weights
// included, and no row dropped. It is the reference the pruned engine must
// answer like.
func installUnpruned(e *Engine, name string, kept []int, w []float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	all := make([]int, len(e.ms))
	for i := range all {
		all[i] = i
	}
	ix, matched := e.matchMissing(ep.g, ep.ix, ep.matched, all)
	classes := make(map[string]*classModel, len(ep.classes)+1)
	for k, v := range ep.classes {
		if ix != ep.ix {
			v = &classModel{kept: v.kept, model: v.model, w: v.w}
		}
		classes[k] = v
	}
	classes[name] = newClass(len(e.ms), kept, &core.Model{W: slices.Clone(w)})
	e.publish(&epoch{g: ep.g, ix: ix, matched: matched, classes: classes, version: ep.version, lsn: ep.lsn})
}

// installPruned installs a class on e through the one door training uses.
func installPruned(e *Engine, name string, kept []int, w []float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	e.publish(e.install(ep, ep.ix, ep.matched, name, newClass(len(e.ms), kept, &core.Model{W: slices.Clone(w)})))
}

// dualStage runs dual-stage training on e's epoch, matching what it selects,
// and returns the result without installing it: kept in selection order,
// zero weights included.
func dualStage(e *Engine, examples []core.Example, numCandidates int) *dualstage.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	ix, matched := ep.ix, ep.matched
	opts := dualstage.Default(numCandidates)
	opts.Train = e.opts.Train
	return dualstage.Run(e.ms, func(indices []int) *index.Index {
		ix, matched = e.matchMissing(ep.g, ix, matched, indices)
		return ix.Project(indices)
	}, examples, opts)
}

// finished reports whether every class of the epoch carries its
// denominators over the index's whole node span.
func (ep *epoch) finished() bool {
	for _, cm := range ep.classes {
		if len(cm.dots) != ep.ix.NodeSpan() {
			return false
		}
	}
	return true
}

// appendDurable appends d to w the way a primary does, AppendAsync then
// WaitDurable, and returns its LSN.
func appendDurable(tb testing.TB, w *wal.WAL, d graph.Delta) uint64 {
	tb.Helper()
	lsn, err := w.AppendAsync(d)
	if err == nil {
		err = w.WaitDurable(lsn)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return lsn
}
