package semprox

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
)

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
func dualStage(e *Engine, examples []Example, numCandidates int) *core.DualStageResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	ix, matched := ep.ix, ep.matched
	opts := core.DefaultDualStage(numCandidates)
	opts.Train = e.opts.Train
	return core.DualStage(e.ms, func(indices []int) *index.Index {
		ix, matched = e.matchMissing(ep.g, ix, matched, indices)
		return ix.Project(indices)
	}, examples, opts)
}

// every is the kept set of a class over all n metagraphs.
func every(n int) []int {
	kept := make([]int, n)
	for i := range kept {
		kept[i] = i
	}
	return kept
}

// familyExamples is a second semantic class on the toy graph.
func familyExamples(g *Graph) []Example {
	return []Example{{Q: g.NodeByName("Alice"), X: g.NodeByName("Bob"), Y: g.NodeByName("Tom")}}
}

// TestPrunedEqualsUnpruned is the property behind dropping the metagraphs no
// class weighs: an engine whose epochs hold only the union of its classes'
// non-zero weights answers every query (k = 0 and 3), every proximity and
// every weight read bit for bit like one that holds every metagraph — for
// learned, random, one-hot and all-zero weights, a full and a dual-stage
// class (the latter keeping its weighed coordinates in selection order),
// classes whose weighed sets overlap, and a class trained after updates,
// which re-matches dropped metagraphs on the updated graph; and it goes on
// doing so across updates, a compaction, and save → load. Each class's
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
	pruned.TrainDualStage("dual", classmateExamples(g), 2)
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

	pruned.Compact()
	ref.Compact()
	check("compacted")

	loaded := saveLoad(t, pruned)
	assertEngineEquivalent(t, loaded, ref, "saved and loaded")
	assertHoldsWeighed(t, loaded)
}

// preChangeSnapshot saves a trained toy engine in the shape every snapshot
// had before training dropped the metagraphs no class weighs: every
// metagraph matched, and a class keeping all of them with zero weights
// among its own. It returns the engine that wrote it too.
func preChangeSnapshot(t testing.TB) (*Engine, []byte) {
	t.Helper()
	eng, g := toyEngine(t)
	probe, _ := toyEngine(t)
	probe.Train("classmate", classmateExamples(g))
	w := probe.Weights("classmate")
	w[slices.IndexFunc(w, func(x float64) bool { return x != 0 })] = 0 // at least one zero, whatever was learned
	installUnpruned(eng, "classmate", every(eng.NumMetagraphs()), w)
	if slices.Index(w, 0) < 0 || slices.IndexFunc(w, func(x float64) bool { return x != 0 }) < 0 {
		t.Fatalf("the pre-change class weighs %v; it needs a zero and a non-zero weight", w)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return eng, buf.Bytes()
}

// TestPreChangeSnapshotLoads: a snapshot in the shape written before
// training dropped unweighed metagraphs loads as it was — LoadEngine prunes
// nothing — and answers like the engine that wrote it; the next Train on the
// loaded engine prunes it, and every class still answers as before.
func TestPreChangeSnapshotLoads(t *testing.T) {
	eng, snap := preChangeSnapshot(t)
	loaded, err := LoadEngine(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.MatchedCount(), loaded.NumMetagraphs(); got != want {
		t.Fatalf("the loaded pre-change snapshot holds %d of %d metagraphs", got, want)
	}
	if got, want := loaded.cur.Load().classes["classmate"].kept, eng.cur.Load().classes["classmate"].kept; !slices.Equal(got, want) {
		t.Fatalf("the loaded class keeps %v, want %v", got, want)
	}
	assertEngineEquivalent(t, loaded, eng, "pre-change snapshot loaded")

	g := eng.Graph()
	loaded.Train("family", familyExamples(g))
	installUnpruned(eng, "family", every(eng.NumMetagraphs()), loaded.Weights("family"))
	assertHoldsWeighed(t, loaded)
	for name, cm := range loaded.cur.Load().classes {
		for k := range cm.kept {
			if cm.model.W[k] == 0 {
				t.Fatalf("class %q still keeps metagraph %d at weight 0", name, cm.kept[k])
			}
		}
	}
	assertEngineEquivalent(t, loaded, eng, "pre-change snapshot trained")
	assertEngineEquivalent(t, saveLoad(t, loaded), eng, "pre-change snapshot trained, saved and loaded")
}
