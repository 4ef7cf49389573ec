// External test package: the property test builds indices over the
// synthetic LinkedIn dataset, whose package transitively imports index —
// an in-package test would be an import cycle.
package index_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sync"
	"testing"

	semprox "repro"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// serialize is ix's section framed as a stream of its own
// (index.WriteSection): equal rows write equal bytes.
func serialize(t testing.TB, ix *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := index.WriteSection(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelBuildMatchesSerial is the parallel/serial equivalence
// property: building the offline index with any worker count, and
// counting it as an engine does (index.Count, whose two-edge metapaths
// the graph serves, written out as runs by WriteSection), must be
// byte-for-byte identical to the one-worker serial build — same NodeVec,
// PairVec and Partners for every key.
func TestParallelBuildMatchesSerial(t *testing.T) {
	ds := dataset.LinkedIn(dataset.Config{Users: 200, Seed: 7, NoiseRate: 0.05})
	pats := mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	ms := mining.Metagraphs(pats)
	if len(ms) < 4 {
		t.Fatalf("only %d metagraphs mined; dataset too small to exercise parallelism", len(ms))
	}

	want := index.SerialIndex(ms, match.NewSymISO(ds.G))
	wantBytes := serialize(t, want)

	for _, workers := range []int{1, 2, 8, 0} {
		var got *index.Index
		if workers > 0 {
			parts, _ := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(ds.G) }, workers)
			got = index.Merge(parts...)
		} else { // 0: Count's fan-out
			got = index.Merge(index.Count(ds.G, ms)...)
		}
		if got.NumMeta() != want.NumMeta() {
			t.Fatalf("workers=%d: NumMeta %d != %d", workers, got.NumMeta(), want.NumMeta())
		}
		if !bytes.Equal(serialize(t, got), wantBytes) {
			t.Fatalf("workers=%d: parallel index differs from serial build", workers)
		}
		// Partners are rebuilt, not serialized; compare them explicitly.
		for v := graph.NodeID(0); int(v) < ds.G.NumNodes(); v++ {
			a, b := got.Partners(v), want.Partners(v)
			if len(a) != len(b) {
				t.Fatalf("workers=%d: partners of %d differ: %v vs %v", workers, v, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: partners of %d differ: %v vs %v", workers, v, a, b)
				}
			}
		}
	}
}

// The two goldens below pin the indexes the benchmark's read_direct and
// lifecycle workloads build by their content (index.ContentDigest: keys,
// then per row Meta and Count, fixed-width), not by their section's
// bytes, so a codec change leaves them alone and a change to any row fails
// them. Both were recorded beside the wire digests they replaced.

// readDirectIndexContent describes the read_direct index (5 000 LinkedIn
// users, noise 0.05, seed 1, MaxNodes 3, MinSupport 5), the one the build
// gave when it still counted instances through hash maps.
const readDirectIndexContent = "e45a2fc8da79d540b683c354f04bd95a9421ce6bf8b5fb10cb52713a0f201d83"

// TestReadDirectIndexGolden pins a full-size offline build: however the
// build counts instances, the index it lays out is the same.
func TestReadDirectIndexGolden(t *testing.T) {
	checkGolden(t, "read_direct", readDirectIndex(), readDirectIndexContent)
}

// readDirectIndex builds the read_direct index once per test binary.
var readDirectIndex = sync.OnceValue(func() *index.Index { return minedIndex(5000, 3) })

// minedIndex is the full offline build over the LinkedIn graph of the
// given size (noise 0.05, seed 1) mined at maxNodes with MinSupport 5.
func minedIndex(users, maxNodes int) *index.Index {
	_, ix := mined(users, maxNodes)
	return ix
}

// mined is minedIndex and the metagraphs it counts.
func mined(users, maxNodes int) ([]*metagraph.Metagraph, *index.Index) {
	ds := dataset.LinkedIn(dataset.Config{Users: users, Seed: 1, NoiseRate: 0.05})
	ms := mining.Metagraphs(mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: maxNodes, MinSupport: 5}), ds.Anchor))
	parts, _ := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(ds.G) }, 2)
	return ms, index.Merge(parts...)
}

// TestBuildAllocBudget holds the one-worker offline build to a ceiling of
// allocations at the read_direct and lifecycle shapes: the counter's
// scratch is reused across metagraphs and every slice of the runs above
// each node is sized once, so what a build allocates follows the
// metagraphs, not the keys. The ceilings are today's counts plus about 5 %;
// a slice grown by append instead passes them by hundreds. The race
// detector allocates on its own, so it only reports there.
func TestBuildAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name            string
		users, maxNodes int
		ceiling         float64
	}{
		{"read_direct", 5000, 3, 329},
		{"lifecycle", 600, 4, 1274},
	} {
		ds := dataset.LinkedIn(dataset.Config{Users: c.users, Seed: 1, NoiseRate: 0.05})
		ms := mining.Metagraphs(mining.ProximityFilter(
			mining.Mine(ds.G, mining.Options{MaxNodes: c.maxNodes, MinSupport: 5}), ds.Anchor))
		matcher := match.NewSymISO(ds.G)
		allocs := testing.AllocsPerRun(3, func() {
			index.SerialIndex(ms, matcher)
		})
		t.Logf("%s: %.0f allocations per build, ceiling %.0f", c.name, allocs, c.ceiling)
		if allocs > c.ceiling && !index.RaceEnabled {
			t.Errorf("%s: the one-worker build allocates %.0f times per build, over its ceiling of %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// uniformD is the number d of symmetric pairs each symmetric position of m
// lies in, or 0 when the positions lie in different numbers of them.
func uniformD(m *metagraph.Metagraph) int64 {
	in := map[int]int64{}
	for _, p := range m.SymmetricPairs() {
		in[p.U]++
		in[p.V]++
	}
	d := int64(0)
	for _, n := range in {
		if d != 0 && n != d {
			return 0
		}
		d = n
	}
	return d
}

// TestNodeCountIsRunSumOverD holds the identity the snapshot's counts rest
// on. An instance that puts x on a symmetric position adds 1 to m_x and 1
// to m_xy for every partner y on a position symmetric to x's; where every
// symmetric position of a metagraph lies in the same number d of symmetric
// pairs, Σ_y m_xy = d·m_x at every node, and the divisor Encode finds in
// the counts is that d. At lifecycle that is every metagraph, checked at
// every node. At the paper shape (600 users, MaxNodes 5, every metagraph
// matched) the metagraphs whose positions lie in different numbers of
// pairs are the ones Encode writes the counts of, and their counts come
// back as they were, with every other row.
func TestNodeCountIsRunSumOverD(t *testing.T) {
	ms, ix := mined(600, 4)
	div := index.Divisors(ix)
	for i, m := range ms {
		d := uniformD(m)
		if d == 0 || div[i] != d {
			t.Fatalf("lifecycle metagraph %d (%v): its positions lie in %d symmetric pairs each; the section's divisor is %d", i, m, d, div[i])
		}
		nodes := 0
		for x := range graph.NodeID(ix.NodeSpan()) {
			mx := ix.NodeVec(x).Get(i)
			if mx == 0 {
				continue
			}
			sum := 0.0
			for _, y := range ix.Partners(x) {
				sum += ix.PairVec(x, y).Get(i)
			}
			if sum != float64(d)*mx {
				t.Fatalf("lifecycle metagraph %d, node %d: Σ_y m_xy = %v, d·m_x = %d·%v", i, x, sum, d, mx)
			}
			nodes++
		}
		if nodes == 0 {
			t.Fatalf("lifecycle metagraph %d has no row", i)
		}
	}
	if testing.Short() {
		t.Skip("the paper shape's full match takes seconds")
	}
	ms, ix = mined(600, 5)
	var written, unequal []int
	for i, d := range index.Divisors(ix) {
		if d == 0 {
			written = append(written, i)
		}
		if uniformD(ms[i]) == 0 {
			unequal = append(unequal, i)
		}
	}
	if len(unequal) == 0 || !slices.Equal(written, unequal) {
		t.Fatalf("paper shape: the counts of metagraphs %v are written, the positions of %v lie in unequal numbers of pairs", written, unequal)
	}
	raw := serialize(t, ix)
	back, err := index.ReadSection(bytes.NewReader(raw), math.MaxInt32)
	if err != nil {
		t.Fatal(err)
	}
	if index.ContentDigest(back) != index.ContentDigest(ix) || !bytes.Equal(serialize(t, back), raw) {
		t.Fatalf("paper shape: the written counts of %v do not round-trip", written)
	}
}

// lifecycleIndexContent describes the lifecycle index (600 LinkedIn users,
// noise 0.05, seed 1, MaxNodes 4, MinSupport 5), the one built when SymISO
// still visited every automorphic assignment and Instances kept the lex-min
// one.
const lifecycleIndexContent = "2fa4d8e94967ddde820beb89c9dd0d5c24e0a202f1a22bbd091522614ee97d4a"

// TestLifecycleIndexGolden pins a build whose metagraphs include 3-leaf
// stars (|Aut| = 6) next to the |Aut| = 2 patterns read_direct covers:
// however instances are de-duplicated and counted, the index is the same.
func TestLifecycleIndexGolden(t *testing.T) {
	checkGolden(t, "lifecycle", lifecycleIndex(), lifecycleIndexContent)
}

// lifecycleIndex builds the lifecycle index once per test binary.
var lifecycleIndex = sync.OnceValue(func() *index.Index { return minedIndex(600, 4) })

// paperShapeIndexContent describes the index a paper-shape engine serves:
// 600 LinkedIn users (noise 0.05, seed 1) mined at the paper's MaxNodes 5
// with MinSupport 5, trained on college from 100 examples with one restart
// of at most 60 iterations, so that it holds the rows of the metagraphs its
// w* weighs. paperShapeWeights is the SHA-256 of that w*, dense over M, as
// little-endian float64 bits. Both were recorded while Engine.Train still
// matched every mined metagraph on the whole graph before it learned.
const (
	paperShapeIndexContent = "5a689b9ae34def3dc522e960ca04d5b88d51e0aac22f79c7ce3f990e7ca200ad"
	paperShapeWeights      = "0f87c2c02da0d8e032849bd1b88c7cbfc329e24e407daaaf7d308a5bca26a685"
)

// TestPaperShapeIndexGolden pins the paper-size metagraph set: the w* an
// engine learns at MaxNodes 5, and the index that w* makes it hold, built
// here from a full match of the metagraphs it weighs.
func TestPaperShapeIndexGolden(t *testing.T) {
	w, ix := paperShapeIndex()
	h := sha256.New()
	for _, wi := range w {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(wi)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != paperShapeWeights {
		t.Errorf("paper-shape weights %v hash to %s, want %s", w, got, paperShapeWeights)
	}
	checkGolden(t, "paper-shape", ix, paperShapeIndexContent)
}

// paperShapeIndex trains the paper-shape engine once per test binary and
// returns its w* and the index of a full match of what w* weighs.
var paperShapeIndex = sync.OnceValues(func() ([]float64, *index.Index) {
	ds := dataset.LinkedIn(dataset.Config{Users: 600, Seed: 1, NoiseRate: 0.05})
	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 5, MinSupport: 5}
	opts.Train.Restarts, opts.Train.MaxIters = 1, 60
	eng, err := semprox.NewEngine(ds.G, "user", opts)
	if err != nil {
		panic(err)
	}
	labels := ds.Classes["college"]
	eng.Train("college", semprox.MakeExamples(labels, labels.Queries(), ds.Users(), 100, 1))
	w := eng.Weights("college")
	var weighed []int
	var ms []*metagraph.Metagraph
	for i, wi := range w {
		if wi != 0 {
			weighed = append(weighed, i)
			ms = append(ms, eng.Metagraphs()[i])
		}
	}
	parts, _ := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(ds.G) }, 2)
	return w, index.Empty(len(w)).AddParts(weighed, parts)
})

// The wire digests below are the SHA-256 of the three indexes above, each
// written as one section framed as a stream of its own (WriteSection). The content goldens pin the rows; these pin the stream
// the codec writes from them, so a change to how the index is laid out in
// memory that shifts a byte of a snapshot fails here.
const (
	readDirectIndexWire = "b1daeb4f2014197366940db398418404313b99b6daf186f67d25f1e16dcf5fe0"
	lifecycleIndexWire  = "b9e0ffeebef1542ef942aa7c0065a48065dd4d98a4cf5634141dfd649da84b79"
	paperShapeIndexWire = "5c47d549b10d49fb9cae97cffc05ca80f522c8dbf4a49abbd367e51cae8e864f"
)

// TestIndexWireGolden pins the section bytes of the read_direct,
// lifecycle and paper-shape indexes.
func TestIndexWireGolden(t *testing.T) {
	_, paper := paperShapeIndex()
	for _, c := range []struct {
		name string
		ix   *index.Index
		want string
	}{
		{"read_direct", readDirectIndex(), readDirectIndexWire},
		{"lifecycle", lifecycleIndex(), lifecycleIndexWire},
		{"paper-shape", paper, paperShapeIndexWire},
	} {
		sum := sha256.Sum256(serialize(t, c.ix))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s index writes bytes hashing to %s, want %s", c.name, got, c.want)
		}
	}
}

// checkGolden holds ix to its content digest.
func checkGolden(t *testing.T, name string, ix *index.Index, content string) {
	t.Helper()
	if got := index.ContentDigest(ix); got != content {
		t.Errorf("%s index (%d metagraphs, %d pairs) content hashes to %s, want %s", name, ix.NumMeta(), ix.NumPairs(), got, content)
	}
}
