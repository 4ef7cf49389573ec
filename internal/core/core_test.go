package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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

func users(g *graph.Graph) []graph.NodeID {
	return g.NodesOfType(g.Types().ID("user"))
}

func TestProximityTheorem1(t *testing.T) {
	g, ix := toyIndex(t)
	us := users(g)

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, ix.NumMeta())
		for i := range w {
			w[i] = rng.Float64()
		}
		c := 0.5 + 2*rng.Float64()
		cw := make([]float64, len(w))
		for i := range w {
			cw[i] = c * w[i]
		}
		for _, x := range us {
			// Self-maximum.
			if Proximity(ix, w, x, x) != 1 {
				return false
			}
			for _, y := range us {
				p := Proximity(ix, w, x, y)
				// Range.
				if p < 0 || p > 1+1e-12 {
					return false
				}
				// Symmetry.
				if math.Abs(p-Proximity(ix, w, y, x)) > 1e-12 {
					return false
				}
				// Scale-invariance.
				if math.Abs(p-Proximity(ix, cw, x, y)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestProximityToyValues(t *testing.T) {
	g, ix := toyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	alice := g.NodeByName("Alice")
	w := UniformWeights(ix.NumMeta())
	// m_Kate = (M1:1, M2:1, M3:1); m_Jay = (M1:1, M3:1); m_{Kate,Jay} =
	// (M1:1, M3:1) → π = 2·2/(3+2) = 0.8.
	if got := Proximity(ix, w, kate, jay); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("π(Kate,Jay) = %f, want 0.8", got)
	}
	// m_Alice = (M2:1, M3:1, M4:1); m_{Kate,Alice} = (M2:1) → 2/(3+3).
	if got := Proximity(ix, w, kate, alice); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("π(Kate,Alice) = %f, want 1/3", got)
	}
	// Unrelated pair.
	tom := g.NodeByName("Tom")
	if got := Proximity(ix, w, kate, tom); got != 0 {
		t.Fatalf("π(Kate,Tom) = %f, want 0", got)
	}
}

func TestRank(t *testing.T) {
	g, ix := toyIndex(t)
	kate := g.NodeByName("Kate")
	w := UniformWeights(ix.NumMeta())
	r := Rank(ix, w, kate)
	if len(r) != 2 {
		t.Fatalf("Rank(Kate) = %v", r)
	}
	if r[0].Node != g.NodeByName("Jay") || r[1].Node != g.NodeByName("Alice") {
		t.Fatalf("Rank(Kate) order = %v", r)
	}
	if r[0].Score <= r[1].Score {
		t.Fatalf("scores out of order: %v", r)
	}
	if top := RankTop(ix, w, kate, 1); len(top) != 1 || top[0].Node != r[0].Node {
		t.Fatalf("RankTop = %v", top)
	}
	if all := RankTop(ix, w, kate, 0); len(all) != 2 {
		t.Fatalf("RankTop(0) = %v", all)
	}
}

func TestNormalizeWeights(t *testing.T) {
	w := []float64{2, -1, 4}
	NormalizeWeights(w)
	if w[0] != 0.5 || w[1] != 0 || w[2] != 1 {
		t.Fatalf("normalized = %v", w)
	}
	z := []float64{0, 0}
	NormalizeWeights(z)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero vector changed: %v", z)
	}
}

// TestGradientMatchesFiniteDifference validates the closed-form gradient of
// Sect. III-B against a numerical derivative.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	g, ix := toyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	alice := g.NodeByName("Alice")
	bob := g.NodeByName("Bob")
	tom := g.NodeByName("Tom")
	examples := []Example{
		{Q: kate, X: jay, Y: alice},
		{Q: bob, X: alice, Y: tom},
		{Q: kate, X: alice, Y: tom},
	}
	rng := rand.New(rand.NewSource(42))
	const mu = 5.0
	for trial := 0; trial < 10; trial++ {
		w := make([]float64, ix.NumMeta())
		for i := range w {
			w[i] = 0.2 + rng.Float64()
		}
		grad := make([]float64, len(w))
		gradient(gather(ix, examples), w, mu, grad)
		const h = 1e-6
		for i := range w {
			wp := append([]float64(nil), w...)
			wm := append([]float64(nil), w...)
			wp[i] += h
			wm[i] -= h
			num := (LogLikelihood(ix, wp, examples, mu) - LogLikelihood(ix, wm, examples, mu)) / (2 * h)
			if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("trial %d coord %d: analytic %g vs numeric %g", trial, i, grad[i], num)
			}
		}
	}
}

func TestTrainLearnsClassmateWeights(t *testing.T) {
	g, ix := toyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	alice := g.NodeByName("Alice")
	bob := g.NodeByName("Bob")
	tom := g.NodeByName("Tom")

	// Classmate supervision: Jay before Alice for Kate; Tom before Alice
	// for Bob. Characteristic metagraph: M1 (shared school+major).
	examples := []Example{
		{Q: kate, X: jay, Y: alice},
		{Q: bob, X: tom, Y: alice},
	}
	opts := DefaultTrain()
	opts.Restarts = 3
	model := Train(ix, examples, opts)

	uniLL := LogLikelihood(ix, UniformWeights(ix.NumMeta()), examples, opts.Mu)
	if model.LogLikelihood < uniLL {
		t.Fatalf("trained LL %f worse than uniform %f", model.LogLikelihood, uniLL)
	}
	// The learned proximity must respect the supervision.
	if Proximity(ix, model.W, kate, jay) <= Proximity(ix, model.W, kate, alice) {
		t.Fatalf("training failed to order Jay before Alice: w=%v", model.W)
	}
	// M1 (classmate) must dominate M2 (close-friend evidence toward Alice).
	if model.W[0] <= model.W[1] {
		t.Fatalf("w[M1]=%f should exceed w[M2]=%f", model.W[0], model.W[1])
	}
	// Weights normalized to [0, 1].
	for _, v := range model.W {
		if v < 0 || v > 1 {
			t.Fatalf("weights not normalized: %v", model.W)
		}
	}
	if model.Iterations <= 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestTrainDeterministic(t *testing.T) {
	g, ix := toyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	alice := g.NodeByName("Alice")
	ex := []Example{{Q: kate, X: jay, Y: alice}}
	opts := DefaultTrain()
	opts.Restarts = 2
	a := Train(ix, ex, opts)
	b := Train(ix, ex, opts)
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("non-deterministic training: %v vs %v", a.W, b.W)
		}
	}
}

func TestTrainEmptyExamples(t *testing.T) {
	_, ix := toyIndex(t)
	model := Train(ix, nil, DefaultTrain())
	if model == nil || len(model.W) != ix.NumMeta() {
		t.Fatal("Train with no examples must still return a model")
	}
}

func TestSeeds(t *testing.T) {
	ms := fixtures.All()
	// Only M3 is a metapath.
	got := Seeds(ms)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Seeds = %v, want [2]", got)
	}
}

func TestPartialTransitivityOnToy(t *testing.T) {
	// A sanity check in the spirit of Theorem 1's partial transitivity:
	// with uniform weights, Kate close to both Jay and Alice implies
	// Jay–Alice proximity is not forced to zero structurally... on the toy
	// graph Jay and Alice actually share nothing, so instead verify the
	// formal statement's trivial direction: proximities are consistent
	// bounds (π ≤ 1 and π(x,x) = 1 held elsewhere). Here we verify that
	// the premise of the theorem cannot be satisfied with ε close to 0.5
	// for this w, documenting the boundary behaviour.
	g, ix := toyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	alice := g.NodeByName("Alice")
	w := UniformWeights(ix.NumMeta())
	pj := Proximity(ix, w, kate, jay)
	pa := Proximity(ix, w, kate, alice)
	if pj >= 1 || pa >= 1 {
		t.Fatalf("premise proximities out of open range: %f %f", pj, pa)
	}
}
