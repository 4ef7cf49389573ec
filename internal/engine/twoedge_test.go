package engine

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/wal"
)

// TestIndexEqualsSymISOCount: an engine's index, whose two-edge metapaths
// it reads from the graph's common neighbours (index.Count), holds the
// rows SymISO's MatchParts counts for the metagraphs it holds on the graph
// it serves — every node's row, partners and pair rows — after Train,
// after Save → LoadEngine, after ApplyUpdate and after a WAL replay, at
// the read_direct, lifecycle and paper shapes; and save → load → save is
// byte-identical. -short and the race detector skip the paper shape, whose
// engine takes seconds to build.
func TestIndexEqualsSymISOCount(t *testing.T) {
	for _, sh := range snapShapes {
		t.Run(sh.name, func(t *testing.T) {
			if sh.maxNodes > 4 && (testing.Short() || raceEnabled) {
				t.Skip("building the engine at MaxNodes 5 takes seconds")
			}
			// symISO is the index SymISO counts for what e holds; the engines
			// compared after it serve the same graph and hold the same
			// metagraphs.
			symISO := func(e *Engine) *index.Index {
				t.Helper()
				ep := e.cur.Load()
				var held []int
				var ms []*metagraph.Metagraph
				for i, ok := range ep.matched {
					if ok {
						held, ms = append(held, i), append(ms, e.ms[i])
					}
				}
				if !slices.ContainsFunc(ms, index.IsTwoEdgeMetapath) {
					t.Fatalf("the engine holds no two-edge metapath among %v", held)
				}
				parts, _ := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(ep.g) }, 0)
				return index.Empty(len(e.ms)).AddParts(held, parts)
			}
			check := func(tag string, e *Engine, want *index.Index) {
				t.Helper()
				ix := e.cur.Load().ix
				for x := range graph.NodeID(e.Graph().NumNodes()) {
					partners := ix.Partners(x)
					if !sameVec(ix.NodeVec(x), want.NodeVec(x)) || !slices.Equal(partners, want.Partners(x)) {
						t.Fatalf("%s: node %d: m_x %v, partners %v; SymISO's %v, %v", tag, x, ix.NodeVec(x), partners, want.NodeVec(x), want.Partners(x))
					}
					for _, y := range partners {
						if !sameVec(ix.PairVec(x, y), want.PairVec(x, y)) {
							t.Fatalf("%s: m_%d,%d is %v, SymISO's %v", tag, x, y, ix.PairVec(x, y), want.PairVec(x, y))
						}
					}
				}
			}
			eng := sh.build(1)
			want := symISO(eng)
			check("trained", eng, want)
			snap := saveBytes(t, eng)
			loaded, err := LoadEngine(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			check("loaded", loaded, want)
			if !bytes.Equal(saveBytes(t, loaded), snap) {
				t.Fatal("save → load → save drifted")
			}
			g := eng.Graph()
			fresh := graph.NodeID(g.NumNodes())
			d := graph.Delta{
				Nodes: []graph.DeltaNode{{Type: "user", Value: "joiner"}},
				Edges: []graph.Edge{{U: fresh, V: g.NodeByName("college-0")}, {U: fresh, V: g.NodeByName("college-1")}},
			}
			if _, err := eng.ApplyUpdate(d); err != nil {
				t.Fatal(err)
			}
			want = symISO(eng)
			check("updated", eng, want)
			w, err := wal.Open(t.TempDir(), wal.Options{BaseLSN: loaded.LSN()})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			appendDurable(t, w, d)
			if applied, _, err := ReplayWAL(loaded, w); err != nil || applied != 1 {
				t.Fatalf("replayed %d records: %v", applied, err)
			}
			check("replayed", loaded, want)
			if !bytes.Equal(saveBytes(t, loaded), saveBytes(t, eng)) {
				t.Fatal("the replayed engine saves other bytes than the updated one")
			}
		})
	}
}

// sameVec reports whether a and b hold the same coordinates.
func sameVec(a, b index.SparseVec) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		am, av := a.At(i)
		bm, bv := b.At(i)
		if am != bm || av != bv {
			return false
		}
	}
	return true
}

// saveBytes is e's snapshot.
func saveBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
