package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/mining"
	"repro/internal/wal"
)

// TestDenominatorsCarriedEqualScratch is the property behind scanning with
// precomputed denominators: whatever path published the epoch — training,
// an update that patches node rows and adds nodes, a patch over a patch, a
// coalesced batch, a hub update, a snapshot load; raw and
// log-transformed counts — the vector the class carries is the vector a
// recompute gives, so no score moves a bit.
func TestDenominatorsCarriedEqualScratch(t *testing.T) {
	for _, logTransform := range []bool{false, true} {
		tag := fmt.Sprintf("toy, log %v", logTransform)
		g := fixtures.Toy()
		opts := defaultOptions()
		opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
		opts.Train.Restarts, opts.Train.MaxIters = 1, 50
		opts.LogTransform = logTransform
		eng, err := newEngine(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.Train("classmate", classmateExamples(g))
		trainDualStage(eng, "classmate2", classmateExamples(g), 2)
		checkDenominators(t, eng, tag+" (trained)")

		// Each delta enrols new users at a school of the toy graph, so each
		// adds nodes and moves the node rows of that school's students: a
		// carry over a trained base, then two over earlier patches.
		rng := rand.New(rand.NewSource(21))
		for step, school := range []string{"College A", "College B", "College A"} {
			before := eng.cur.Load().classes["classmate"].dots
			n := graph.NodeID(eng.Graph().NumNodes())
			d := randomToyDelta(rng, int(n)+1, fmt.Sprintf("den-%d", step))
			d.Nodes = append([]graph.DeltaNode{{Type: "user", Value: fmt.Sprintf("den-user-%d", step)}}, d.Nodes...)
			d.Edges = append(d.Edges, graph.Edge{U: n, V: g.NodeByName(school)}, graph.Edge{U: n, V: g.NodeByName("Economics")})
			if _, err := eng.ApplyUpdate(d); err != nil {
				t.Fatal(err)
			}
			if slices.Equal(before, eng.cur.Load().classes["classmate"].dots[:len(before)]) {
				t.Fatalf("%s: update %d moved no denominator; the carry was not exercised", tag, step)
			}
			checkDenominators(t, eng, fmt.Sprintf("%s (update %d)", tag, step))
		}
		n, lsn, college := graph.NodeID(eng.Graph().NumNodes()), eng.LSN(), g.NodeByName("College A")
		if _, err := eng.ApplyRecords([]wal.Record{
			{LSN: lsn + 1, Delta: graph.Delta{Nodes: []graph.DeltaNode{{Type: "user", Value: "den-a"}}, Edges: []graph.Edge{{U: n, V: college}}}},
			{LSN: lsn + 2, Delta: graph.Delta{Nodes: []graph.DeltaNode{{Type: "user", Value: "den-b"}}, Edges: []graph.Edge{{U: n + 1, V: college}}}},
		}, nil); err != nil {
			t.Fatal(err)
		}
		checkDenominators(t, eng, tag+" (coalesced batch)")
		checkDenominators(t, eng, tag+" (coalesced batch, again)")

		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEngine(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkDenominators(t, loaded, tag+" (loaded)")
		// Proximity is scale-invariant and the toy's counts are nearly all 1,
		// so the answers barely tell log1p from raw counts; the denominators,
		// m_v·w by node, do: the loaded engine carries the saved ones.
		if got, want := loaded.cur.Load().classes["classmate"].dots, eng.cur.Load().classes["classmate"].dots; !slices.Equal(got, want) {
			t.Fatalf("%s: loaded denominators %v, want %v", tag, got, want)
		}
		if _, err := loaded.ApplyUpdate(randomToyDelta(rng, loaded.Graph().NumNodes(), "den-loaded")); err != nil {
			t.Fatal(err)
		}
		checkDenominators(t, loaded, tag+" (loaded, updated)")

		hubEng, hub := hubEngine(t, 200, logTransform)
		m := graph.NodeID(hubEng.Graph().NumNodes())
		for i, d := range []graph.Delta{
			{Nodes: []graph.DeltaNode{{Type: "user"}}, Edges: []graph.Edge{{U: m, V: hub}}},
			{Edges: []graph.Edge{{U: hubEng.Graph().NodesOfType(hubEng.Graph().Types().ID("user"))[0], V: hub}, {U: m, V: hub}}},
		} {
			if _, err := hubEng.ApplyUpdate(d); err != nil {
				t.Fatal(err)
			}
			checkDenominators(t, hubEng, fmt.Sprintf("hub, log %v (update %d)", logTransform, i))
		}
		checkDenominators(t, hubEng, fmt.Sprintf("hub, log %v (updated)", logTransform))
	}
}

// TestPublishedEpochsNeedNoReaderBuild pins who derives the classes'
// denominators: every path that publishes an epoch — full and dual-stage
// training, updates (a first patch and a patch over a patch), snapshot
// load — hands readers every class's NodeDots over the whole node span
// BEFORE the first read, so no read path derives them. The index itself
// has nothing to build: every constructor lays out its runs. Concurrent
// readers load every epoch the updates publish.
func TestPublishedEpochsNeedNoReaderBuild(t *testing.T) {
	finished := func(stage string, e *Engine) {
		t.Helper()
		ep := e.cur.Load()
		if len(ep.classes) != 2 {
			t.Fatalf("%s: %d classes published, want 2", stage, len(ep.classes))
		}
		if !ep.finished() {
			t.Fatalf("%s: a class was published without its denominators", stage)
		}
	}
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	trainDualStage(eng, "classmate2", classmateExamples(g), 2)
	finished("training", eng)

	// Readers see the same from outside: whatever epoch one can load while
	// the updates below publish is already finished.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !eng.cur.Load().finished() {
					t.Error("a published epoch left a class's denominators for a reader to derive")
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 2; step++ {
		st, err := eng.ApplyUpdate(randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("adj-%d", step)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Rematched == 0 {
			t.Fatalf("update %d patched nothing (%+v): the patch path was not exercised", step, st)
		}
		finished(fmt.Sprintf("update %d", step), eng)
	}
	close(stop)
	readers.Wait()

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	finished("snapshot load", loaded)
}

// TestPrunedEqualsUnpruned is the property behind dropping the metagraphs no
// class weighs: an engine whose epochs hold only the union of its classes'
// non-zero weights answers every query (k = 0 and 3), every proximity and
// every weight read bit for bit like one that holds every metagraph — for
// learned, random, one-hot and all-zero weights, a full and a dual-stage
// class (the latter keeping its weighed coordinates in selection order),
// classes whose weighed sets overlap, and a class trained after updates,
// which re-matches dropped metagraphs on the updated graph; and it goes on
// doing so across updates and save → load. Each class's
// denominators stay what its weights give on the pruned index.
func TestPrunedEqualsUnpruned(t *testing.T) {
	pruned, g := toyEngine(t)
	ref, _ := toyEngine(t)
	numMeta := pruned.NumMetagraphs()
	check := func(tag string) {
		t.Helper()
		assertHoldsWeighed(t, pruned)
		if got := ref.MatchedCount(); got != numMeta {
			t.Fatalf("%s: the reference holds %d of %d metagraphs", tag, got, numMeta)
		}
		assertEngineEquivalent(t, pruned, ref, tag)
		checkDenominators(t, pruned, tag)
	}

	pruned.Train("classmate", classmateExamples(g))
	installUnpruned(ref, "classmate", every(numMeta), pruned.Weights("classmate"))
	check("learned")

	res := dualStage(ref, classmateExamples(g), 2)
	trainDualStage(pruned, "dual", classmateExamples(g), 2)
	installUnpruned(ref, "dual", res.Kept, res.Model.W)
	var weighed []int
	for k, i := range res.Kept {
		if res.Model.W[k] != 0 {
			weighed = append(weighed, i)
		}
	}
	if got := pruned.cur.Load().classes["dual"].kept; !slices.Equal(got, weighed) {
		t.Fatalf("dual-stage class keeps %v; it weighs %v in selection order %v", got, weighed, res.Kept)
	}
	check("dual-stage")

	rng := rand.New(rand.NewSource(37))
	kept := rng.Perm(numMeta)[:1+rng.Intn(numMeta)]
	w := make([]float64, len(kept))
	for i := range w {
		if rng.Intn(3) > 0 {
			w[i] = rng.Float64()
		}
	}
	installPruned(pruned, "random", kept, w)
	installUnpruned(ref, "random", kept, w)
	check("random")

	// One-hot on a metagraph the pruned engine dropped: the door matches it.
	dropped := slices.Index(pruned.cur.Load().matched, false)
	if dropped < 0 {
		t.Fatal("every metagraph is weighed; the one-hot class needs a dropped one")
	}
	oneHot := make([]float64, numMeta)
	oneHot[dropped] = 1
	installPruned(pruned, "onehot", every(numMeta), oneHot)
	installUnpruned(ref, "onehot", every(numMeta), oneHot)
	if !pruned.cur.Load().matched[dropped] {
		t.Fatalf("the one-hot class weighs metagraph %d and the epoch does not hold it", dropped)
	}
	check("one-hot")

	zero := make([]float64, numMeta)
	installPruned(pruned, "zero", every(numMeta), zero)
	installUnpruned(ref, "zero", every(numMeta), zero)
	if kept := pruned.cur.Load().classes["zero"].kept; len(kept) != 0 {
		t.Fatalf("the all-zero class keeps %v", kept)
	}
	check("all-zero")
	users := g.NodesOfType(g.Types().ID("user"))
	for _, x := range users {
		if got, _ := pruned.Query("zero", x, 0); len(got) != 0 {
			t.Fatalf("all-zero class ranks %v for %d", got, x)
		}
		for _, y := range users {
			want := 0.0
			if x == y {
				want = 1
			}
			if got, _ := pruned.Proximity("zero", x, y); got != want {
				t.Fatalf("all-zero class: proximity(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}

	for step := 0; step < 3; step++ {
		d := randomToyDelta(rng, pruned.Graph().NumNodes(), fmt.Sprintf("prune-%d", step))
		if _, err := pruned.ApplyUpdate(d); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ApplyUpdate(d); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("update %d", step))
	}

	// Drop the classes that weigh the most, so that the next training has
	// metagraphs to match again on the updated graph.
	installPruned(pruned, "onehot", every(numMeta), zero)
	installUnpruned(ref, "onehot", every(numMeta), zero)
	installPruned(pruned, "random", every(numMeta), zero)
	installUnpruned(ref, "random", every(numMeta), zero)
	check("classes zeroed")
	before := slices.Clone(pruned.cur.Load().matched)
	pruned.Train("family", familyExamples(g))
	installUnpruned(ref, "family", every(numMeta), pruned.Weights("family"))
	rematched := 0
	for i, held := range pruned.cur.Load().matched {
		if held && !before[i] {
			rematched++
		}
	}
	if rematched == 0 {
		t.Fatalf("training after the updates held no metagraph the epoch had dropped (held %v)", before)
	}
	check("trained after updates")

	loaded := saveLoad(t, pruned)
	assertEngineEquivalent(t, loaded, ref, "saved and loaded")
	assertHoldsWeighed(t, loaded)
}

// TestUnlog1pRecoversCounts keeps its name and pins the fact that replaced
// recovering a count from a stored log1p value: the index stores counts, so
// on a LogTransform engine gains that land on a count c
// read back bit for bit as math.Log1p(float64(c+g)) — for c and g on both
// sides of the varint byte boundaries (127/128, 16383/16384) and sums up to
// 2^32-1, through a snapshot and an update.
func TestUnlog1pRecoversCounts(t *testing.T) {
	snap, a, b := sharedSchool(t)
	for _, g := range []uint64{1, 127, 128, 16383, 16384} {
		for _, c := range []uint64{1, 127, 128, 16383, 16384, math.MaxUint32 - g} {
			eng, err := LoadEngine(bytes.NewReader(fixtures.WithEveryCount(t, snap, SnapshotMagic, c)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.ApplyUpdate(newSchools(eng.Graph(), int(g), a, b)); err != nil {
				t.Fatalf("c=%d g=%d: %v", c, g, err)
			}
			ix := eng.cur.Load().ix
			want := math.Float64bits(math.Log1p(float64(c + g)))
			if eng.MatchedCount() == 0 {
				t.Fatal("no metagraph matched")
			}
			for i, used := range ix.MetaSupport() {
				if !used {
					continue
				}
				for name, v := range map[string]index.SparseVec{"m_A": ix.NodeVec(a), "m_B": ix.NodeVec(b), "m_AB": ix.PairVec(a, b)} {
					if got := v.Get(i); math.Float64bits(got) != want {
						t.Fatalf("c=%d g=%d: %s[%d] reads %v, want log1p(%d) = %v", c, g, name, i, got, c+g, math.Log1p(float64(c+g)))
					}
				}
			}
		}
	}
}
