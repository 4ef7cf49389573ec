// External test package: the property test builds indices over the
// synthetic LinkedIn dataset, whose package transitively imports index —
// an in-package test would be an import cycle.
package index_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// readDirectIndexSHA256 is the SHA-256 of the serialized index the
// benchmark's read_direct workload builds (5 000 LinkedIn users, noise 0.05,
// seed 1, MaxNodes 3, MinSupport 5), recorded when the Builder still counted
// instances through hash maps.
const readDirectIndexSHA256 = "eae81bee2851b672402af068371e501bd292e5bf27eb34458e84e2ecfccf3d90"

// TestReadDirectIndexGolden pins the bytes of a full-size offline build:
// however the Builder counts instances, the index it freezes is the same.
func TestReadDirectIndexGolden(t *testing.T) {
	ds := dataset.LinkedIn(dataset.Config{Users: 5000, Seed: 1, NoiseRate: 0.05})
	ms := mining.Metagraphs(mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 3, MinSupport: 5}), ds.Anchor))
	ix := index.BuildParallel(ms, func() match.Matcher { return match.NewSymISO(ds.G) }, 2)
	sum := sha256.Sum256(serialize(t, ix))
	if got := hex.EncodeToString(sum[:]); got != readDirectIndexSHA256 {
		t.Fatalf("read_direct index (%d metagraphs, %d pairs) hashes to %s, want %s", len(ms), ix.NumPairs(), got, readDirectIndexSHA256)
	}
}
