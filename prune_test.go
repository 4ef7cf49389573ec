package semprox

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/match"
)

// installUnpruned returns e with a class installed the way an engine did
// before training dropped the metagraphs no class weighs: every metagraph
// matched, the class keeping all it was trained on, zero weights included,
// and no row dropped. No engine method publishes such an epoch, so it is
// e's snapshot with every missing metagraph matched into its index and the
// class added, loaded. It is the reference the pruned engine must answer
// like.
func installUnpruned(t testing.TB, e *Engine, name string, kept []int, w []float64) *Engine {
	t.Helper()
	h, g, ix, models := snapshotParts(t, snapshotOf(t, e))
	held := make([]bool, len(h.Metas))
	for _, i := range h.Matched {
		held[i] = true
	}
	var missing []int
	var ms []*Metagraph
	for i, ok := range held {
		if !ok {
			missing = append(missing, i)
			ms = append(ms, e.Metagraphs()[i])
		}
	}
	parts, _ := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(g) }, 1)
	h.Matched = every(len(h.Metas))
	at, found := slices.BinarySearchFunc(h.Classes, name, func(sc engine.SnapshotClass, name string) int { return strings.Compare(sc.Name, name) })
	sc, m := engine.SnapshotClass{Name: name, Kept: kept}, core.Model{W: slices.Clone(w)}
	if found {
		h.Classes[at], models[at] = sc, m
	} else {
		h.Classes, models = slices.Insert(h.Classes, at, sc), slices.Insert(models, at, m)
	}
	return loadCrafted(t, h, g, ix.AddParts(missing, parts), models)
}

// installPruned installs a class on e through the one door training uses.
func installPruned(e *Engine, name string, kept []int, w []float64) {
	e.Fit(name, func([]*Metagraph, core.TrainOptions, func([]int) *index.Index) ([]int, *core.Model) {
		return kept, &core.Model{W: slices.Clone(w)}
	})
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
	eng = installUnpruned(t, eng, "classmate", every(eng.NumMetagraphs()), w)
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
	got, _, _, _ := snapshotParts(t, snapshotOf(t, loaded))
	want, _, _, _ := snapshotParts(t, snapshotOf(t, eng))
	if !slices.Equal(got.Classes[0].Kept, want.Classes[0].Kept) {
		t.Fatalf("the loaded class keeps %v, want %v", got.Classes[0].Kept, want.Classes[0].Kept)
	}
	assertEngineEquivalent(t, loaded, eng, "pre-change snapshot loaded")

	g := eng.Graph()
	loaded.Train("family", familyExamples(g))
	eng = installUnpruned(t, eng, "family", every(eng.NumMetagraphs()), loaded.Weights("family"))
	assertHoldsWeighed(t, loaded)
	h, _, _, models := snapshotParts(t, snapshotOf(t, loaded))
	for i, sc := range h.Classes {
		for k := range sc.Kept {
			if models[i].W[k] == 0 {
				t.Fatalf("class %q still keeps metagraph %d at weight 0", sc.Name, sc.Kept[k])
			}
		}
	}
	assertEngineEquivalent(t, loaded, eng, "pre-change snapshot trained")
	assertEngineEquivalent(t, saveLoad(t, loaded), eng, "pre-change snapshot trained, saved and loaded")
}
