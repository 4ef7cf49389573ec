package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
)

// checkAdjacency compares the runs of got with want's run for run — the
// same headers in the same order, each with the same postings — and the
// node row behind every posting, then (scanEverything) each run of got, its
// scans and its denominators with the by-key reads they replace.
func checkAdjacency(t *testing.T, label string, got, want *Index, numNodes int) {
	t.Helper()
	ones := make([]float64, want.NumMeta())
	for i := range ones {
		ones[i] = 1
	}
	for v := graph.NodeID(-1); int(v) < numNodes+2; v++ {
		rg, rw := &got.flat, &want.flat
		glo, ghi := rg.runs(v)
		wlo, whi := rw.runs(v)
		if ghi-glo != whi-wlo {
			t.Fatalf("%s: node %d has %d runs, from scratch %d", label, v, ghi-glo, whi-wlo)
		}
		accG, accW := got.Accumulate(v, ones), want.Accumulate(v, ones)
		for i := int32(0); i < ghi-glo; i++ {
			hg, pg := rg.head[glo+i], rg.postings(glo+i)
			hw, pw := rw.head[wlo+i], rw.postings(wlo+i)
			if hg != hw || !slices.Equal(pg, pw) {
				t.Fatalf("%s: run %d of node %d is %v %v; from scratch %v %v", label, i, v, hg, pg, hw, pw)
			}
			for _, p := range pg {
				if !sameRow(accG.NodeVec(p.node), accW.NodeVec(p.node)) {
					t.Fatalf("%s: partner %d of node %d: m_%d resolves to %v; from scratch %v",
						label, p.node, v, p.node, accG.NodeVec(p.node), accW.NodeVec(p.node))
				}
			}
		}
		accG.Release()
		accW.Release()
	}
	scanEverything(t, got, numNodes+1)
}

// TestQuickAdjacencyCarriedEqualsScratch is the property behind keeping
// m_xy in the runs alone: the runs WithPatch carries across two successive
// (and, on graphs this small, overlapping) patches equal the runs of an
// index matched from scratch on the final graph.
func TestQuickAdjacencyCarriedEqualsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(g *graph.Graph) match.Matcher { return match.NewSymISO(g) }
	overlapped := 0
	for trial := 0; trial < 40; trial++ {
		g0, d1 := randTyped(rng)
		g1, touched1, err := g0.Apply(d1)
		if err != nil {
			t.Fatal(err)
		}
		g2, touched2, err := g1.Apply(randDelta(rng, g1))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range patchMetagraphs() {
			p1 := RematchDelta(g1, m, mk, touched1)
			p2 := RematchDelta(g2, m, mk, touched2)
			for _, k := range rowsOf(&p1.up).keys {
				if slices.Contains(rowsOf(&p2.up).keys, k) {
					overlapped++
					break
				}
			}
			scratch := matchPart(m, mk(g2))

			carried := mustPatch(t, mustPatch(t, matchPart(m, mk(g0)), p1), p2)
			checkAdjacency(t, "carried", carried, scratch, g2.NumNodes())
		}
	}
	if overlapped == 0 {
		t.Fatal("no trial had overlapping patches; the property was not exercised")
	}
}

// TestAdjacencyOfHandBuiltPatch covers what re-matching never produces but
// the types allow: node counts that are not their runs' sums, a patch that
// introduces node ids beyond the base — which the pooled accumulator must
// grow to reach — and an index with no pairs at all.
func TestAdjacencyOfHandBuiltPatch(t *testing.T) {
	w := []float64{1}
	empty := Empty(1)
	if got := empty.Partners(3); len(got) != 0 {
		t.Fatalf("empty index has partners %v", got)
	}
	acc := empty.Accumulate(3, w)
	if len(acc.Touched) != 0 {
		t.Fatalf("empty index: the scan reached %v", acc.Touched)
	}
	// Hand the pool an accumulator sized for the empty index, so that the
	// next scan (of this goroutine, without -race) has to grow it.
	acc.slot = acc.slot[:0]
	acc.Release()

	p := handPatch(1, map[graph.NodeID][]Entry{1: {{Meta: 0, Count: 7}}, 3: {{Meta: 0, Count: 2}}, 9: {{Meta: 0, Count: 1}}},
		map[PairKey][]Entry{MakePairKey(1, 3): {{Meta: 0, Count: 1}}, MakePairKey(3, 9): {{Meta: 0, Count: 4}}})
	patched := mustPatch(t, empty, p)
	if got := patched.Partners(3); !slices.Equal(got, []graph.NodeID{1, 9}) {
		t.Fatalf("partners of 3 = %v, want [1 9]", got)
	}
	acc = patched.Accumulate(3, w)
	if len(acc.slot) < patched.NodeSpan() || !slices.Equal(acc.Touched, []graph.NodeID{1, 9}) {
		t.Fatalf("scan of 3 over %d slots for a node span of %d reached %v, want [1 9]", len(acc.slot), patched.NodeSpan(), acc.Touched)
	}
	if acc.NodeVec(1).Get(0) != 7 || acc.PairDot(1) != 1 || acc.PairDot(9) != 4 {
		t.Fatalf("scan of 3 resolves to m_1 = %v, m_31·w = %v, m_39·w = %v", acc.NodeVec(1), acc.PairDot(1), acc.PairDot(9))
	}
	// Wrap the stamps with a stale sum on node 1 that would look current
	// after the wrap: the next scan must not add to it.
	acc.gen, acc.slot[1] = math.MaxUint32, accSlot{sum: 5, gen: 1}
	acc.Release()
	acc = patched.Accumulate(3, w)
	if !slices.Equal(acc.Touched, []graph.NodeID{1, 9}) || acc.PairDot(1) != 1 {
		t.Fatalf("scan of 3 after the stamps wrapped reached %v with m_31·w = %v", acc.Touched, acc.PairDot(1))
	}
	acc.Release()
	acc = patched.Accumulate(9, w)
	if !slices.Equal(acc.Touched, []graph.NodeID{3}) || acc.NodeVec(3).Get(0) != 2 {
		t.Fatalf("scan of 9 reached %v, m_3 = %v", acc.Touched, acc.NodeVec(3))
	}
	acc.Release()
	gains, counts := rowsOf(&p.up), countsOf(&p.up)
	checkAdjacency(t, "hand-built", patched, &Index{numMeta: 1, flat: refRuns(&counts, &gains)}, 10)
}
