package semprox

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/mining"
)

// fullMatchTrain is the reference Engine.Train is held to: match every
// metagraph the epoch does not hold on the whole graph, merge the parts
// into the epoch's index, learn on that, then install the class, which
// drops the rows of every metagraph no class weighs.
func fullMatchTrain(e *Engine, class string, examples []Example) {
	e.Fit(class, func(ms []*Metagraph, train core.TrainOptions, match func([]int) *index.Index) ([]int, *core.Model) {
		all := every(len(ms))
		return all, core.Train(match(all), examples, train)
	})
}

// TestTrainEqualsFullMatchTrain holds Engine.Train, which learns from the
// rows its examples name, to the full-match reference: the same w* to the
// bit, the same dense weights, the same held metagraphs and the same
// snapshot bytes, on a fresh engine (the read_direct and lifecycle shapes),
// for a second class on an epoch that already holds the first class's
// metagraphs, for a class trained after three updates whose new users are
// among its examples, and through the log1p transform. Seeds 1–3.
func TestTrainEqualsFullMatchTrain(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			read := dataset.LinkedIn(dataset.Config{Users: 5000, Seed: seed, NoiseRate: 0.05})
			life := dataset.LinkedIn(dataset.Config{Users: 600, Seed: seed, NoiseRate: 0.05})
			pair := func(ds *dataset.Dataset, maxNodes int, logTransform bool) (*Engine, *Engine) {
				opts := DefaultOptions()
				opts.Mining = mining.Options{MaxNodes: maxNodes, MinSupport: 5}
				opts.Train.Restarts, opts.Train.MaxIters = 1, 60
				opts.LogTransform = logTransform
				got, err := NewEngine(ds.G, "user", opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewEngine(ds.G, "user", opts)
				if err != nil {
					t.Fatal(err)
				}
				return got, want
			}
			examples := func(ds *dataset.Dataset, class string) []Example {
				labels := ds.Classes[class]
				return MakeExamples(labels, labels.Queries(), ds.Users(), 100, seed)
			}

			got, want := pair(read, 3, false)
			got.Train("college", examples(read, "college"))
			fullMatchTrain(want, "college", examples(read, "college"))
			assertTrainedAlike(t, "read_direct", got, want, "college")

			got, want = pair(life, 4, false)
			got.Train("college", examples(life, "college"))
			fullMatchTrain(want, "college", examples(life, "college"))
			assertTrainedAlike(t, "lifecycle", got, want, "college")

			got.Train("coworker", examples(life, "coworker"))
			fullMatchTrain(want, "coworker", examples(life, "coworker"))
			assertTrainedAlike(t, "second class", got, want, "coworker")

			ex := examples(life, "coworker")
			for i := range 3 {
				d := joinLike(got.Graph(), ex[i].X, fmt.Sprintf("train-user-%d", i))
				for _, e := range []*Engine{got, want} {
					if _, err := e.ApplyUpdate(d); err != nil {
						t.Fatal(err)
					}
				}
				added := NodeID(got.Graph().NumNodes() - 1)
				ex = append(ex, Example{Q: ex[i].Q, X: added, Y: ex[i].Y}, Example{Q: added, X: ex[i].X, Y: ex[i].Y})
			}
			got.Train("coworker-updated", ex)
			fullMatchTrain(want, "coworker-updated", ex)
			assertTrainedAlike(t, "after updates", got, want, "coworker-updated")

			got, want = pair(life, 4, true)
			got.Train("college", examples(life, "college"))
			fullMatchTrain(want, "college", examples(life, "college"))
			assertTrainedAlike(t, "log1p", got, want, "college")
		})
	}
}

// joinLike is the delta that adds a user named name with every neighbour
// of x.
func joinLike(g *Graph, x NodeID, name string) Delta {
	n := NodeID(g.NumNodes())
	d := Delta{Nodes: []DeltaNode{{Type: "user", Value: name}}}
	for _, v := range g.Neighbors(x) {
		d.Edges = append(d.Edges, Edge{U: n, V: v})
	}
	return d
}

// assertTrainedAlike fails unless the two engines learned class to the
// same bits and serve the same epoch.
func assertTrainedAlike(t *testing.T, stage string, got, want *Engine, class string) {
	t.Helper()
	model := func(e *Engine) core.Model {
		h, _, _, models := snapshotParts(t, snapshotOf(t, e))
		return models[slices.IndexFunc(h.Classes, func(sc engine.SnapshotClass) bool { return sc.Name == class })]
	}
	gm, wm := model(got), model(want)
	bitsOf := func(w []float64) []uint64 {
		out := make([]uint64, len(w))
		for i, v := range w {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	if !slices.Equal(bitsOf(gm.W), bitsOf(wm.W)) || math.Float64bits(gm.LogLikelihood) != math.Float64bits(wm.LogLikelihood) {
		t.Errorf("%s: Model.W %v (L %v), full match %v (L %v)", stage, gm.W, gm.LogLikelihood, wm.W, wm.LogLikelihood)
	}
	if !slices.Equal(bitsOf(got.Weights(class)), bitsOf(want.Weights(class))) {
		t.Errorf("%s: Weights %v, full match %v", stage, got.Weights(class), want.Weights(class))
	}
	if got.MatchedCount() != want.MatchedCount() {
		t.Errorf("%s: MatchedCount %d, full match %d", stage, got.MatchedCount(), want.MatchedCount())
	}
	var gb, wb bytes.Buffer
	if err := got.Save(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Errorf("%s: snapshot of %d bytes differs from the full match's %d", stage, gb.Len(), wb.Len())
	}
}
