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
// are counted from common neighbours (index.TwoEdgePart), holds the rows
// SymISO's MatchParts counts for the metagraphs it holds on the graph it
// serves — after Train, after Save → LoadEngine, after ApplyUpdate and
// after a WAL replay — at the read_direct, lifecycle and paper shapes; and
// save → load → save is byte-identical. -short and the race detector skip
// the paper shape, whose engine takes seconds to build.
func TestIndexEqualsSymISOCount(t *testing.T) {
	for _, sh := range snapShapes {
		t.Run(sh.name, func(t *testing.T) {
			if sh.maxNodes > 4 && (testing.Short() || raceEnabled) {
				t.Skip("building the engine at MaxNodes 5 takes seconds")
			}
			// symISO writes the index SymISO counts for what e holds; the
			// engines compared after it serve the same graph and hold the same
			// metagraphs.
			symISO := func(e *Engine) []byte {
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
				return indexBytes(t, index.NewBuilder(len(e.ms)).Build().AddParts(held, parts))
			}
			check := func(tag string, e *Engine, want []byte) {
				t.Helper()
				if !bytes.Equal(indexBytes(t, e.cur.Load().ix), want) {
					t.Fatalf("%s: the engine's index is not the one SymISO counts", tag)
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

// indexBytes is ix written as an index file: equal rows write equal bytes.
func indexBytes(t testing.TB, ix *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := index.Write(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
