package baselines

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/index"
)

func toyIndex(t testing.TB) (*graph.Graph, *index.Index) {
	t.Helper()
	g := fixtures.Toy()
	mgs := fixtures.All()
	return g, index.Merge(index.Count(g, mgs)...)
}

func classmateExamples(g *graph.Graph) []core.Example {
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	alice := g.NodeByName("Alice")
	bob := g.NodeByName("Bob")
	tom := g.NodeByName("Tom")
	return []core.Example{
		{Q: kate, X: jay, Y: alice},
		{Q: bob, X: tom, Y: alice},
	}
}

func TestMGPURanksUniformly(t *testing.T) {
	g, ix := toyIndex(t)
	r := NewMGPU(ix)
	if r.Name() != "MGP-U" {
		t.Fatal("name")
	}
	kate := g.NodeByName("Kate")
	ranking := r.Rank(kate)
	if len(ranking) != 2 {
		t.Fatalf("ranking = %v", ranking)
	}
	// Uniform weights: Jay (2 shared instances) before Alice (1).
	if ranking[0].Node != g.NodeByName("Jay") {
		t.Fatalf("ranking = %v", ranking)
	}
}

func TestMGPTrainsAndRanks(t *testing.T) {
	g, ix := toyIndex(t)
	opts := core.DefaultTrain()
	opts.Restarts = 2
	r := NewMGP(ix, classmateExamples(g), opts)
	if r.Name() != "MGP" {
		t.Fatal("name")
	}
	kate := g.NodeByName("Kate")
	ranking := r.Rank(kate)
	if len(ranking) == 0 || ranking[0].Node != g.NodeByName("Jay") {
		t.Fatalf("MGP ranking = %v", ranking)
	}
}

func TestMPPRestrictsToPaths(t *testing.T) {
	g, ix := toyIndex(t)
	opts := core.DefaultTrain()
	opts.Restarts = 1
	r, kept := NewMPP(fixtures.All(), ix, classmateExamples(g), opts)
	if r.Name() != "MPP" {
		t.Fatal("name")
	}
	// Only M3 is a path.
	if len(kept) != 1 || kept[0] != 2 {
		t.Fatalf("kept = %v", kept)
	}
	if r.Ix.NumMeta() != 1 {
		t.Fatalf("MPP index has %d metagraphs", r.Ix.NumMeta())
	}
	// MPP cannot see M1 evidence: for Kate it only knows the shared
	// address with Jay.
	kate := g.NodeByName("Kate")
	ranking := r.Rank(kate)
	if len(ranking) != 1 || ranking[0].Node != g.NodeByName("Jay") {
		t.Fatalf("MPP ranking = %v", ranking)
	}
}

func TestMGPBPicksBestSingleMetagraph(t *testing.T) {
	g, ix := toyIndex(t)
	r := NewMGPB(ix, classmateExamples(g))
	if r.Name() != "MGP-B" {
		t.Fatal("name")
	}
	// M1 (shared school+major) alone orders both classmate examples
	// correctly; M2/M3/M4 do not.
	if got := r.BestIndex(); got != 0 {
		t.Fatalf("BestIndex = %d, want 0 (M1)", got)
	}
	ranking := r.Rank(g.NodeByName("Bob"))
	if len(ranking) == 0 || ranking[0].Node != g.NodeByName("Tom") {
		t.Fatalf("MGP-B ranking for Bob = %v", ranking)
	}
}

func TestBestIndexNonOneHot(t *testing.T) {
	_, ix := toyIndex(t)
	r := NewMGPU(ix)
	if r.BestIndex() != -1 {
		t.Fatal("uniform weights misreported as one-hot")
	}
}

func TestSRWPagerankIsDistribution(t *testing.T) {
	g, _ := toyIndex(t)
	s := NewSRW(g, g.Types().ID("user"), nil, DefaultSRW())
	p, _ := s.pagerank(g.NodeByName("Kate"), false)
	sum := 0.0
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %f", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("PageRank mass = %f, want 1", sum)
	}
	// Restart concentrates mass at the query.
	if p[g.NodeByName("Kate")] < p[g.NodeByName("Tom")] {
		t.Fatal("query should hold more mass than a distant node")
	}
}

// TestSRWGradientMatchesFiniteDifference validates the coupled derivative
// iteration against numeric differentiation of the PageRank scores.
func TestSRWGradientMatchesFiniteDifference(t *testing.T) {
	g, _ := toyIndex(t)
	s := NewSRW(g, g.Types().ID("user"), nil, DefaultSRW())
	q := g.NodeByName("Kate")
	x := g.NodeByName("Jay")

	_, dp := s.pagerank(q, true)
	const h = 1e-6
	for f := 0; f < s.nf; f++ {
		orig := s.theta[f]
		s.theta[f] = orig + h
		pp, _ := s.pagerank(q, false)
		s.theta[f] = orig - h
		pm, _ := s.pagerank(q, false)
		s.theta[f] = orig
		num := (pp[x] - pm[x]) / (2 * h)
		if math.Abs(num-dp[f][x]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("feature %d: analytic %g vs numeric %g", f, dp[f][x], num)
		}
	}
}

func TestSRWTrainingImprovesObjective(t *testing.T) {
	g, _ := toyIndex(t)
	examples := classmateExamples(g)
	opts := DefaultSRW()
	opts.Steps = 0
	untrained := NewSRW(g, g.Types().ID("user"), examples, opts)
	opts.Steps = 25
	trained := NewSRW(g, g.Types().ID("user"), examples, opts)

	obj := func(s *SRW) float64 {
		var ll float64
		for _, ex := range examples {
			p, _ := s.pagerank(ex.Q, false)
			d := p[ex.X] - p[ex.Y]
			ll += -math.Log1p(math.Exp(-5 * d))
		}
		return ll
	}
	if obj(trained) < obj(untrained) {
		t.Fatalf("training decreased objective: %f -> %f", obj(untrained), obj(trained))
	}
}

func TestSRWRankRestrictsToUsers(t *testing.T) {
	g, _ := toyIndex(t)
	s := NewSRW(g, g.Types().ID("user"), classmateExamples(g), DefaultSRW())
	kate := g.NodeByName("Kate")
	ranking := s.Rank(kate)
	if len(ranking) == 0 {
		t.Fatal("empty SRW ranking")
	}
	for _, r := range ranking {
		if g.Type(r.Node) != g.Types().ID("user") {
			t.Fatalf("non-user %d in ranking", r.Node)
		}
		if r.Node == kate {
			t.Fatal("query in its own ranking")
		}
	}
	for i := 1; i < len(ranking); i++ {
		if ranking[i].Score > ranking[i-1].Score {
			t.Fatal("ranking not descending")
		}
	}
	if len(s.Theta()) != s.nf {
		t.Fatal("Theta length")
	}
}
