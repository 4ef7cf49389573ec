package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Property tests on randomized graphs: MGP's Theorem 1 guarantees and the
// learning machinery must hold on arbitrary typed attribute graphs, not
// just the paper's toy.

// randomBipartiteIndex builds a random user/attribute graph and its index
// over a few standard metagraphs.
func randomBipartiteIndex(rng *rand.Rand) (*graph.Graph, *index.Index) {
	b := graph.NewBuilder()
	b.Types().Register("user")
	b.Types().Register("a")
	b.Types().Register("b")
	nu := 4 + rng.Intn(8)
	na := 2 + rng.Intn(4)
	users := make([]graph.NodeID, nu)
	for i := range users {
		users[i] = b.AddNode("user", "")
	}
	attrsA := make([]graph.NodeID, na)
	attrsB := make([]graph.NodeID, na)
	for i := 0; i < na; i++ {
		attrsA[i] = b.AddNode("a", "")
		attrsB[i] = b.AddNode("b", "")
	}
	for _, u := range users {
		for k := 0; k < 1+rng.Intn(2); k++ {
			b.AddEdge(u, attrsA[rng.Intn(na)])
		}
		if rng.Intn(2) == 0 {
			b.AddEdge(u, attrsB[rng.Intn(na)])
		}
	}
	g := b.MustBuild()

	tu, ta, tb := g.Types().ID("user"), g.Types().ID("a"), g.Types().ID("b")
	ms := []*metagraph.Metagraph{
		metagraph.MustNew([]graph.TypeID{tu, ta, tu}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{tu, tb, tu}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{tu, tu, ta, tb},
			[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}}),
	}
	bld := index.NewBuilder(len(ms))
	matcher := match.NewSymISO(g)
	for i, m := range ms {
		bld.AddMetagraph(i, m, matcher)
	}
	return g, bld.Build()
}

// Property: π ∈ [0,1], symmetric, self-max, scale-invariant on random
// graphs and random non-negative weights.
func TestQuickTheorem1RandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ix := randomBipartiteIndex(rng)
		w := make([]float64, ix.NumMeta())
		for i := range w {
			w[i] = rng.Float64()
		}
		us := g.NodesOfType(g.Types().ID("user"))
		for trial := 0; trial < 10; trial++ {
			x := us[rng.Intn(len(us))]
			y := us[rng.Intn(len(us))]
			p := Proximity(ix, w, x, y)
			if p < 0 || p > 1+1e-9 {
				return false
			}
			if math.Abs(p-Proximity(ix, w, y, x)) > 1e-12 {
				return false
			}
			if Proximity(ix, w, x, x) != 1 {
				return false
			}
			c := 0.1 + 3*rng.Float64()
			cw := make([]float64, len(w))
			for i := range w {
				cw[i] = c * w[i]
			}
			if math.Abs(p-Proximity(ix, cw, x, y)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the analytic gradient matches finite differences on random
// graphs and random example sets.
func TestQuickGradientRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ix := randomBipartiteIndex(rng)
		us := g.NodesOfType(g.Types().ID("user"))
		var ex []Example
		for k := 0; k < 5; k++ {
			ex = append(ex, Example{
				Q: us[rng.Intn(len(us))],
				X: us[rng.Intn(len(us))],
				Y: us[rng.Intn(len(us))],
			})
		}
		w := make([]float64, ix.NumMeta())
		for i := range w {
			w[i] = 0.2 + rng.Float64()
		}
		grad := make([]float64, len(w))
		gradient(gather(ix, ex), w, 5, grad)
		const h = 1e-6
		for i := range w {
			wp := append([]float64(nil), w...)
			wm := append([]float64(nil), w...)
			wp[i] += h
			wm[i] -= h
			num := (LogLikelihood(ix, wp, ex, 5) - LogLikelihood(ix, wm, ex, 5)) / (2 * h)
			if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: gradient ascent never decreases the mean log-likelihood
// between its start and converged point.
func TestQuickAscentMonotoneEndToEnd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ix := randomBipartiteIndex(rng)
		us := g.NodesOfType(g.Types().ID("user"))
		var ex []Example
		for k := 0; k < 6; k++ {
			ex = append(ex, Example{
				Q: us[rng.Intn(len(us))],
				X: us[rng.Intn(len(us))],
				Y: us[rng.Intn(len(us))],
			})
		}
		opts := DefaultTrain()
		opts.MaxIters = 120
		w := make([]float64, ix.NumMeta())
		for i := range w {
			w[i] = 0.1 + 0.9*rng.Float64()
		}
		start := LogLikelihood(ix, w, ex, opts.Mu)
		end, iters := ascend(gather(ix, ex), w, opts)
		if iters < 0 {
			return false
		}
		// Gradient ascent must not end below its own starting point (small
		// slack for the final partial step before the convergence check).
		return end >= start-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: m_xy ≤ min(m_x, m_y) coordinate-wise (each co-occurrence is an
// occurrence), which is what keeps π ≤ 1.
func TestQuickVectorDominance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ix := randomBipartiteIndex(rng)
		us := g.NodesOfType(g.Types().ID("user"))
		for _, x := range us {
			for _, y := range ix.Partners(x) {
				for i := 0; i < ix.NumMeta(); i++ {
					pv := ix.PairVec(x, y).Get(i)
					if pv > ix.NodeVec(x).Get(i) || pv > ix.NodeVec(y).Get(i) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
