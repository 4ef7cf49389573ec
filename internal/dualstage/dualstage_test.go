package dualstage

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/index"
)

// toyIndex builds the metagraph vectors of the toy graph over M1–M4.
func toyIndex(t testing.TB) (*graph.Graph, *index.Index) {
	t.Helper()
	g := fixtures.Toy()
	mgs := fixtures.All()
	return g, index.Merge(index.Count(g, mgs)...)
}

func TestCandidateScoresOrdering(t *testing.T) {
	ms := fixtures.All()
	seedIdx := []int{2} // M3 (user–address–user)
	w0 := []float64{1}
	fwd := CandidateScores(ms, seedIdx, w0, false)
	rev := CandidateScores(ms, seedIdx, w0, true)
	if len(fwd) != 3 || len(rev) != 3 {
		t.Fatalf("scores: %v / %v", fwd, rev)
	}
	for i := 1; i < len(fwd); i++ {
		if fwd[i].H > fwd[i-1].H {
			t.Fatalf("forward order broken: %v", fwd)
		}
		if rev[i].H < rev[i-1].H {
			t.Fatalf("reverse order broken: %v", rev)
		}
	}
	// M4 contains an address node like the seed; M1 does not, so
	// H(M4) > H(M1).
	hOf := func(sc []ScoredCandidate, idx int) float64 {
		for _, s := range sc {
			if s.Index == idx {
				return s.H
			}
		}
		t.Fatalf("index %d missing", idx)
		return 0
	}
	if hOf(fwd, 3) <= hOf(fwd, 0) {
		t.Fatalf("H(M4)=%f should exceed H(M1)=%f", hOf(fwd, 3), hOf(fwd, 0))
	}
	// Zero seed weight wipes all scores.
	zero := CandidateScores(ms, seedIdx, []float64{0}, false)
	for _, s := range zero {
		if s.H != 0 {
			t.Fatalf("H with zero weights = %v", zero)
		}
	}
}

func TestDualStage(t *testing.T) {
	g, ix := toyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	alice := g.NodeByName("Alice")
	bob := g.NodeByName("Bob")
	tom := g.NodeByName("Tom")
	ms := fixtures.All()

	matched := [][]int(nil)
	matchFn := func(indices []int) *index.Index {
		matched = append(matched, append([]int(nil), indices...))
		return ix.Project(indices)
	}
	examples := []core.Example{
		{Q: kate, X: jay, Y: alice},
		{Q: bob, X: tom, Y: alice},
	}
	opts := Default(2)
	opts.Train.Restarts = 2
	res := Run(ms, matchFn, examples, opts)

	if len(res.SeedIdx) != 1 || res.SeedIdx[0] != 2 {
		t.Fatalf("SeedIdx = %v", res.SeedIdx)
	}
	if len(res.CandIdx) != 2 {
		t.Fatalf("CandIdx = %v", res.CandIdx)
	}
	if len(res.Kept) != 3 || res.Kept[0] != 2 {
		t.Fatalf("Kept = %v", res.Kept)
	}
	if len(res.Model.W) != 3 {
		t.Fatalf("model size %d", len(res.Model.W))
	}
	// Two match calls: seeds, then seeds+candidates.
	if len(matched) != 2 || len(matched[0]) != 1 || len(matched[1]) != 3 {
		t.Fatalf("match calls = %v", matched)
	}
	// Kept maps the weights back to original indices; unmatched metagraphs
	// get 0.
	weightFor := func(i int) float64 {
		if k := slices.Index(res.Kept, i); k >= 0 {
			return res.Model.W[k]
		}
		return 0
	}
	sum := 0.0
	for i := range ms {
		sum += weightFor(i)
	}
	if sum == 0 {
		t.Fatal("all mapped weights zero")
	}
	unmatched := -1
	for i := range ms {
		found := false
		for _, k := range res.Kept {
			if k == i {
				found = true
			}
		}
		if !found {
			unmatched = i
		}
	}
	if unmatched == -1 {
		t.Fatal("expected one unmatched metagraph")
	}
	if weightFor(unmatched) != 0 {
		t.Fatal("unmatched metagraph has non-zero weight")
	}
}

// TestDualStageCandidateBudget: Run selects |K| candidates once, capped at
// the non-seed metagraphs there are. With |K| = 0 it matches the seeds
// alone and keeps the seed model; otherwise it matches twice, the second
// time K0 ∪ K.
func TestDualStageCandidateBudget(t *testing.T) {
	g, ix := toyIndex(t)
	ex := []core.Example{{Q: g.NodeByName("Kate"), X: g.NodeByName("Jay"), Y: g.NodeByName("Alice")}}
	for _, c := range []struct{ k, cands, calls int }{{0, 0, 1}, {3, 3, 2}, {10, 3, 2}} {
		calls := 0
		matchFn := func(indices []int) *index.Index {
			calls++
			return ix.Project(indices)
		}
		opts := Default(c.k)
		opts.Train.Restarts = 1
		res := Run(fixtures.All(), matchFn, ex, opts)
		if len(res.CandIdx) != c.cands || len(res.Kept) != 1+c.cands || calls != c.calls {
			t.Fatalf("|K|=%d: CandIdx %v, Kept %v, %d match calls; want %d candidates, %d calls", c.k, res.CandIdx, res.Kept, calls, c.cands, c.calls)
		}
		if c.k == 0 && !slices.Equal(res.Model.W, res.SeedW) {
			t.Fatalf("|K|=0: model %v, want the seed weights %v", res.Model.W, res.SeedW)
		}
	}
}

func TestFunctionalSimilarity(t *testing.T) {
	if FunctionalSimilarity(0.9, 0.9) != 1 {
		t.Fatal("FS of equal weights should be 1")
	}
	if got := FunctionalSimilarity(1, 0); got != 0 {
		t.Fatalf("FS(1,0) = %f", got)
	}
	if got := FunctionalSimilarity(0.2, 0.7); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FS(0.2,0.7) = %f", got)
	}
}
