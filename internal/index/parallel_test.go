package index

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/match"
)

// writeBytes is ix's section framed as a stream of its own (WriteSection):
// equal bytes mean equal NodeVec/PairVec tables for every key.
func writeBytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSection(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatchPartsAligned checks the MatchParts contract: parts and times
// align with ms, and merging the parts of three workers reproduces the
// serial index of one.
func TestMatchPartsAligned(t *testing.T) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	parts, times := MatchParts(mgs,
		func() match.Matcher { return match.NewSymISO(g) }, 3)
	if len(parts) != len(mgs) || len(times) != len(mgs) {
		t.Fatalf("parts/times misaligned: %d/%d vs %d", len(parts), len(times), len(mgs))
	}
	for i, p := range parts {
		if p == nil || p.NumMeta() != 1 {
			t.Fatalf("part %d malformed: %+v", i, p)
		}
	}
	merged := Merge(parts...)
	if !bytes.Equal(writeBytes(t, merged), writeBytes(t, SerialIndex(mgs, match.NewSymISO(g)))) {
		t.Fatal("merged parts differ from serial build")
	}
}

func TestMatchPartsEmpty(t *testing.T) {
	parts, times := MatchParts(nil, func() match.Matcher { return nil }, 4)
	if parts != nil || times != nil {
		t.Fatalf("MatchParts(nil) = %v, %v", parts, times)
	}
}

// TestWorkersNormalization: fanOut starts one worker per CPU
// (runtime.GOMAXPROCS) for a worker count below 1, an explicit count as it
// is, and never more workers than jobs.
func TestWorkersNormalization(t *testing.T) {
	started := func(n, workers int) (count int) {
		fanOut(n, workers, func() func(int) {
			count++ // newWorker runs on the caller's goroutine
			return func(int) {}
		})
		return count
	}
	cpus := min(runtime.GOMAXPROCS(0), 64)
	for _, c := range []struct{ n, workers, want int }{
		{64, 0, cpus}, {64, -3, cpus}, {64, 5, 5}, {3, 5, 3}, {0, 0, 0},
	} {
		if got := started(c.n, c.workers); got != c.want {
			t.Errorf("fanOut(%d, %d) started %d workers, want %d", c.n, c.workers, got, c.want)
		}
	}
}
