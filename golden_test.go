package semprox

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mining"
)

// scoreGolden holds, per stage, the SHA-256 of every answer bit a seeded
// 600-user engine gives (see scoreDigest). The digests were recorded when
// the index still stored every value as the float64 it is read as; an
// index that stores integer counts must land on the very same bits.
var scoreGolden = map[string]string{
	"raw/trained": "8240f5ee7302a30a79c9e7a5bdd3e721d6b34eb41cadeb97716b10a77e18ff1e",
	"raw/updated": "c6a507ac2f0da2743193c6deb895b59a908d83214a5c6ef99b56d3a3363d8de3",
}

// scoreDigest hashes, in a fixed order, every class's weights and, per
// user, its full ranking (node ids and score bits) and its proximity to
// every user, little-endian.
func scoreDigest(t *testing.T, e *Engine) string {
	t.Helper()
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	g := e.Graph()
	users := g.NodesOfType(g.Types().ID("user"))
	for _, class := range e.Classes() {
		for _, w := range e.Weights(class) {
			word(math.Float64bits(w))
		}
		for _, q := range users {
			ranked, err := e.Query(class, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			word(uint64(len(ranked)))
			for _, r := range ranked {
				word(uint64(r.Node))
				word(math.Float64bits(r.Score))
			}
			for _, y := range users {
				p, err := e.Proximity(class, q, y)
				if err != nil {
					t.Fatal(err)
				}
				word(math.Float64bits(p))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScoreBitsGolden pins every score bit across changes to how the index
// stores its values: a full and a dual-stage class trained on a 600-user
// LinkedIn graph, then one update that enrols a user at the highest-degree
// node and gives an old user a second edge there. Other architectures may
// fuse a multiply and an add, so the bits are only pinned on amd64.
func TestScoreBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("score bits are pinned on amd64; this is %s", runtime.GOARCH)
	}
	ds := dataset.LinkedIn(dataset.Config{Users: 600, Seed: 26, NoiseRate: 0.05})
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 5}
	opts.Train.Restarts, opts.Train.MaxIters = 1, 40
	eng, err := NewEngine(ds.G, "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	labels := ds.Classes["college"]
	examples := eval.MakeExamples(labels, labels.Queries(), ds.Users(), 60, 26)
	eng.Train("college", examples)
	TrainDualStage(eng, "college-dual", examples, 3)

	g := eng.Graph()
	hub := NodeID(0)
	for v := NodeID(1); int(v) < g.NumNodes(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	var outsider NodeID
	for _, u := range g.NodesOfType(g.Types().ID("user")) {
		if !g.HasEdge(u, hub) {
			outsider = u
			break
		}
	}
	for i, key := range []string{"raw/trained", "raw/updated"} {
		if i == 1 {
			n := NodeID(g.NumNodes())
			if _, err := eng.ApplyUpdate(Delta{
				Nodes: []DeltaNode{{Type: "user", Value: "golden-user"}},
				Edges: []Edge{{U: n, V: hub}, {U: outsider, V: hub}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if got := scoreDigest(t, eng); got != scoreGolden[key] {
			t.Errorf("%s: answer bits hash to %s, golden %s", key, got, scoreGolden[key])
		}
	}
	if got := scoreDigest(t, eng); got != scoreGolden["raw/updated"] {
		t.Errorf("raw/updated, read again: answer bits hash to %s, golden %s", got, scoreGolden["raw/updated"])
	}
}
