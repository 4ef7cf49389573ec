package semprox

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/mining"
)

// toyEngine builds an engine over the paper's toy graph with mining
// parameters loose enough to find M1–M4-style patterns.
func toyEngine(t testing.TB) (*Engine, *Graph) {
	t.Helper()
	g := fixtures.Toy()
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
	opts.Train.Restarts = 2
	opts.Train.MaxIters = 200
	eng, err := NewEngine(g, "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, g
}

func classmateExamples(g *Graph) []Example {
	return []Example{
		{Q: g.NodeByName("Kate"), X: g.NodeByName("Jay"), Y: g.NodeByName("Alice")},
		{Q: g.NodeByName("Bob"), X: g.NodeByName("Tom"), Y: g.NodeByName("Alice")},
	}
}

func TestNewEngineValidation(t *testing.T) {
	g := fixtures.Toy()
	if _, err := NewEngine(g, "nope", DefaultOptions()); err == nil {
		t.Fatal("unknown anchor type accepted")
	}
}

func TestEngineMinesMetagraphs(t *testing.T) {
	eng, _ := toyEngine(t)
	if eng.NumMetagraphs() == 0 {
		t.Fatal("no metagraphs")
	}
	if len(eng.Metagraphs()) != eng.NumMetagraphs() {
		t.Fatal("Metagraphs length mismatch")
	}
	if eng.MatchedCount() != 0 {
		t.Fatal("engine matched eagerly")
	}
}

func TestEngineTrainAndQuery(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	if eng.MatchedCount() != eng.NumMetagraphs() {
		t.Fatal("full training should match everything")
	}
	if got := eng.Classes(); len(got) != 1 || got[0] != "classmate" {
		t.Fatalf("Classes = %v", got)
	}
	res, err := eng.Query("classmate", g.NodeByName("Kate"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Node != g.NodeByName("Jay") {
		t.Fatalf("Query(Kate) = %v, want Jay first", res)
	}
	p, err := eng.Proximity("classmate", g.NodeByName("Kate"), g.NodeByName("Jay"))
	if err != nil || p <= 0 || p > 1 {
		t.Fatalf("Proximity = %f, %v", p, err)
	}
	w := eng.Weights("classmate")
	if len(w) != eng.NumMetagraphs() {
		t.Fatalf("Weights length %d", len(w))
	}
}

func TestEngineUntrainedClassErrors(t *testing.T) {
	eng, g := toyEngine(t)
	if _, err := eng.Query("nope", g.NodeByName("Kate"), 5); err == nil {
		t.Fatal("query on untrained class succeeded")
	}
	if _, err := eng.Proximity("nope", 0, 1); err == nil {
		t.Fatal("proximity on untrained class succeeded")
	}
	if eng.Weights("nope") != nil {
		t.Fatal("weights for untrained class")
	}
}

func TestEngineDualStageMatchesLazily(t *testing.T) {
	eng, g := toyEngine(t)
	eng.TrainDualStage("classmate", classmateExamples(g), 2)
	matched := eng.MatchedCount()
	if matched == 0 {
		t.Fatal("dual stage matched nothing")
	}
	if matched >= eng.NumMetagraphs() {
		t.Fatalf("dual stage matched all %d metagraphs; expected a strict subset", matched)
	}
	res, err := eng.Query("classmate", g.NodeByName("Kate"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("empty dual-stage ranking")
	}
}

// TestEngineParallelTrainDeterministic asserts that Options.Workers only
// changes wall-clock, never results: training is seeded and the parallel
// matching merge is ordered by metagraph offset, so learned weights and
// rankings must match the serial build exactly.
func TestEngineParallelTrainDeterministic(t *testing.T) {
	weightsFor := func(workers int) ([]float64, []Ranked) {
		g := fixtures.Toy()
		opts := DefaultOptions()
		opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
		opts.Train.Restarts = 2
		opts.Train.MaxIters = 200
		opts.Workers = workers
		eng, err := NewEngine(g, "user", opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.Train("classmate", classmateExamples(g))
		res, err := eng.Query("classmate", g.NodeByName("Kate"), 10)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Weights("classmate"), res
	}
	wantW, wantR := weightsFor(1)
	for _, workers := range []int{2, 8} {
		gotW, gotR := weightsFor(workers)
		if len(gotW) != len(wantW) {
			t.Fatalf("workers=%d: %d weights, want %d", workers, len(gotW), len(wantW))
		}
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("workers=%d: weight[%d] = %v, want %v", workers, i, gotW[i], wantW[i])
			}
		}
		if len(gotR) != len(wantR) {
			t.Fatalf("workers=%d: ranking length %d, want %d", workers, len(gotR), len(wantR))
		}
		for i := range wantR {
			if gotR[i] != wantR[i] {
				t.Fatalf("workers=%d: ranking[%d] = %v, want %v", workers, i, gotR[i], wantR[i])
			}
		}
	}
}

// TestEngineDualStageParallelDeterministic does the same for the lazy
// dual-stage path, which matches two different subsets through the
// concurrent per-slot cache.
func TestEngineDualStageParallelDeterministic(t *testing.T) {
	run := func(workers int) ([]float64, int) {
		g := fixtures.Toy()
		opts := DefaultOptions()
		opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
		opts.Train.Restarts = 2
		opts.Train.MaxIters = 200
		opts.Workers = workers
		eng, err := NewEngine(g, "user", opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.TrainDualStage("classmate", classmateExamples(g), 2)
		return eng.Weights("classmate"), eng.MatchedCount()
	}
	wantW, wantMatched := run(1)
	for _, workers := range []int{4} {
		gotW, gotMatched := run(workers)
		if gotMatched != wantMatched {
			t.Fatalf("workers=%d matched %d metagraphs, serial matched %d", workers, gotMatched, wantMatched)
		}
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("workers=%d: weight[%d] = %v, want %v", workers, i, gotW[i], wantW[i])
			}
		}
	}
}

// TestEngineConcurrentOnline hammers Query and Proximity from many
// goroutines after training; run under -race this pins the documented
// thread-safety guarantee of the online phase.
func TestEngineConcurrentOnline(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	users := []NodeID{
		g.NodeByName("Alice"), g.NodeByName("Bob"), g.NodeByName("Kate"),
		g.NodeByName("Jay"), g.NodeByName("Tom"),
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := users[(w+i)%len(users)]
				if _, err := eng.Query("classmate", q, 10); err != nil {
					t.Error(err)
					return
				}
				x, y := users[i%len(users)], users[(i+1)%len(users)]
				if p, err := eng.Proximity("classmate", x, y); err != nil || p < 0 || p > 1 {
					t.Errorf("Proximity(%d, %d) = %f, %v", x, y, p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEngineQueryDuringTrain pins the documented guarantee that queries on
// an already-trained class are safe while a different class trains.
func TestEngineQueryDuringTrain(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Train("family", []Example{
			{Q: g.NodeByName("Alice"), X: g.NodeByName("Bob"), Y: g.NodeByName("Tom")},
		})
	}()
	for i := 0; i < 100; i++ {
		if _, err := eng.Query("classmate", g.NodeByName("Kate"), 5); err != nil {
			t.Fatal(err)
		}
		eng.Classes()
	}
	<-done
	if got := eng.Classes(); len(got) != 2 {
		t.Fatalf("Classes = %v", got)
	}
}

func TestEngineLogTransform(t *testing.T) {
	g := fixtures.Toy()
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 3, MinSupport: 1}
	opts.LogTransform = true
	opts.Train.Restarts = 1
	opts.Train.MaxIters = 50
	eng, err := NewEngine(g, "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Train("any", classmateExamples(g))
	if _, err := eng.Query("any", g.NodeByName("Kate"), 5); err != nil {
		t.Fatal(err)
	}
}

func TestGraphRoundTripViaFacade(t *testing.T) {
	g := fixtures.Toy()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatal("round trip lost nodes")
	}
}

func TestMakeExamplesFacade(t *testing.T) {
	g := fixtures.Toy()
	labels := Labels{}
	labels.Add(g.NodeByName("Kate"), g.NodeByName("Jay"))
	users := g.NodesOfType(g.Types().ID("user"))
	ex := MakeExamples(labels, []NodeID{g.NodeByName("Kate")}, users, 5, 1)
	if len(ex) == 0 {
		t.Fatal("no examples")
	}
}

// TestQueryObservesCandidatesScanned pins the work counter: every ranked
// query — single or inside a batch — records one observation of its scan
// length, and a proximity (no scan) records none.
func TestQueryObservesCandidatesScanned(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	kate, jay := g.NodeByName("Kate"), g.NodeByName("Jay")

	before := engCandidates.Summary().Count
	if _, err := eng.Query("classmate", kate, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryBatch("classmate", []NodeID{kate, jay, kate}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Proximity("classmate", kate, jay); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("untrained", kate, 3); err == nil {
		t.Fatal("untrained class answered")
	}
	if got := engCandidates.Summary().Count - before; got != 4 {
		t.Fatalf("4 ranked queries recorded %d scan lengths", got)
	}
}

// TestOneIndexEqualsPerClassMerge is the property behind keeping one index
// per epoch: a class is a weight vector over it, and for random kept sets —
// ascending, and in an arbitrary selection order like dual-stage training
// produces — and random non-negative weights (some exactly zero),
// Engine.Query and Engine.Proximity return bit for bit what core.RankTop and
// core.Proximity return on an index merged from the kept parts alone in
// ascending order. Against the merge in selection order, which is what a
// dual-stage class used to rank on, the candidates are the same and a score
// may differ in its last bits (rows of three or more kept coordinates sum in
// a different order).
func TestOneIndexEqualsPerClassMerge(t *testing.T) {
	toy, g := toyEngine(t)
	toy.Train("classmate", classmateExamples(g))
	hub, _ := hubEngine(t, 200, false)
	for name, eng := range map[string]*Engine{"toy": toy, "hub": hub} {
		g := eng.Graph()
		users := g.NodesOfType(g.Types().ID("user"))
		queries := append([]NodeID{-1, NodeID(g.NumNodes())}, users...)
		parts, _ := index.MatchParts(eng.ms, func() match.Matcher { return match.NewSymISO(g) }, 1)
		rng := rand.New(rand.NewSource(int64(len(name))))
		for trial := 0; trial < 12; trial++ {
			tag := fmt.Sprintf("%s trial %d", name, trial)
			kept := rng.Perm(len(parts))[:1+rng.Intn(len(parts))]
			ascending := trial%2 == 0
			if ascending {
				slices.Sort(kept)
			}
			w := make([]float64, len(kept))
			for i := range w {
				if rng.Intn(5) > 0 {
					w[i] = rng.Float64()
				}
			}
			ep := eng.cur.Load()
			eng.publish(ep.trained(ep.ix, ep.matched, "probe", newClass(len(eng.ms), kept, &core.Model{W: w})))

			order := make([]int, len(kept)) // positions of kept, by ascending metagraph
			for i := range order {
				order[i] = i
			}
			slices.SortFunc(order, func(a, b int) int { return kept[a] - kept[b] })
			var refParts, selParts []*index.Index
			var refW []float64
			for i, k := range order {
				refParts = append(refParts, parts[kept[k]])
				refW = append(refW, w[k])
				selParts = append(selParts, parts[kept[i]])
			}
			ref, sel := index.Merge(refParts...), index.Merge(selParts...)

			for _, q := range queries {
				for _, k := range []int{0, 3} {
					got, err := eng.Query("probe", q, k)
					if err != nil {
						t.Fatal(err)
					}
					want := core.RankTop(ref, refW, q, k)
					if len(got) != len(want) {
						t.Fatalf("%s: query %d k=%d: %v, per-class merge gives %v", tag, q, k, got, want)
					}
					for i := range want {
						if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("%s: query %d k=%d rank %d: %+v, per-class merge gives %+v", tag, q, k, i, got[i], want[i])
						}
					}
				}
				all, _ := eng.Query("probe", q, 0)
				nodes := func(rs []Ranked) []NodeID {
					out := make([]NodeID, len(rs))
					for i, r := range rs {
						out[i] = r.Node
					}
					slices.Sort(out)
					return out
				}
				if old := core.RankTop(sel, w, q, 0); !slices.Equal(nodes(all), nodes(old)) {
					t.Fatalf("%s: query %d ranks nodes %v, the merge in selection order %v", tag, q, nodes(all), nodes(old))
				}
			}
			for _, x := range users {
				for _, y := range users[int(x)%3 : min(len(users), 40)] {
					got, _ := eng.Proximity("probe", x, y)
					if want := core.Proximity(ref, refW, x, y); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: proximity(%d,%d) = %v, per-class merge gives %v", tag, x, y, got, want)
					}
				}
			}
		}
	}
}
