// External test package: the property test builds indices over the
// synthetic LinkedIn dataset, whose package transitively imports index —
// an in-package test would be an import cycle.
package index_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/mining"
)

func serialize(t testing.TB, ix *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := index.Write(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelBuildMatchesSerial is the parallel/serial equivalence
// property: building the offline index with any worker count must be
// byte-for-byte identical to the one-builder serial build — same NodeVec,
// PairVec and Partners for every key.
func TestParallelBuildMatchesSerial(t *testing.T) {
	ds := dataset.LinkedIn(dataset.Config{Users: 200, Seed: 7, NoiseRate: 0.05})
	pats := mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	ms := mining.Metagraphs(pats)
	if len(ms) < 4 {
		t.Fatalf("only %d metagraphs mined; dataset too small to exercise parallelism", len(ms))
	}

	serial := index.NewBuilder(len(ms))
	matcher := match.NewSymISO(ds.G)
	for i, m := range ms {
		serial.AddMetagraph(i, m, matcher)
	}
	want := serial.Build()
	wantBytes := serialize(t, want)

	for _, workers := range []int{1, 2, 8} {
		got := index.BuildParallel(ms,
			func() match.Matcher { return match.NewSymISO(ds.G) }, workers)
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
// then per row Meta and Count, fixed-width), not by their index.Write
// bytes, so a codec change leaves them alone and a change to any row fails
// them. Both were recorded beside the wire digests they replaced.

// readDirectIndexContent describes the read_direct index (5 000 LinkedIn
// users, noise 0.05, seed 1, MaxNodes 3, MinSupport 5), the one the Builder
// froze when it still counted instances through hash maps.
const readDirectIndexContent = "e45a2fc8da79d540b683c354f04bd95a9421ce6bf8b5fb10cb52713a0f201d83"

// TestReadDirectIndexGolden pins a full-size offline build: however the
// Builder counts instances, the index it freezes is the same.
func TestReadDirectIndexGolden(t *testing.T) {
	ds := dataset.LinkedIn(dataset.Config{Users: 5000, Seed: 1, NoiseRate: 0.05})
	ms := mining.Metagraphs(mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 3, MinSupport: 5}), ds.Anchor))
	ix := index.BuildParallel(ms, func() match.Matcher { return match.NewSymISO(ds.G) }, 2)
	checkGolden(t, "read_direct", ix, readDirectIndexContent)
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
	ds := dataset.LinkedIn(dataset.Config{Users: 600, Seed: 1, NoiseRate: 0.05})
	ms := mining.Metagraphs(mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor))
	ix := index.BuildParallel(ms, func() match.Matcher { return match.NewSymISO(ds.G) }, 2)
	checkGolden(t, "lifecycle", ix, lifecycleIndexContent)
}

// checkGolden holds ix to its content digest.
func checkGolden(t *testing.T, name string, ix *index.Index, content string) {
	t.Helper()
	if got := index.ContentDigest(ix); got != content {
		t.Errorf("%s index (%d metagraphs, %d pairs) content hashes to %s, want %s", name, ix.NumMeta(), ix.NumPairs(), got, content)
	}
}
