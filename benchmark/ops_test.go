package main

import (
	"strings"
	"testing"
)

// render is the byte form of a stream's first n ops.
func render(next func() op, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(next().String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStreamsArePureFunctionsOfTheSeed(t *testing.T) {
	streams := map[string]func(seed int64) func() op{
		"uniform": func(seed int64) func() op { return newReadStream(seed, 1, 0, 5000, false).next },
		"zipf":    func(seed int64) func() op { return newReadStream(seed, 2, 1, 5000, true).next },
		"update":  func(seed int64) func() op { return newUpdateStream(seed, 3, 125).next },
	}
	for name, mk := range streams {
		a, b, c := render(mk(7), 5000), render(mk(7), 5000), render(mk(8), 5000)
		if a != b {
			t.Errorf("%s: the same seed produced two different streams", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", name)
		}
	}
	// Clients of one run draw different ops but agree on which users are
	// hot; workloads at one seed share no stream.
	if render(newReadStream(7, 1, 0, 5000, false).next, 100) == render(newReadStream(7, 1, 1, 5000, false).next, 100) {
		t.Error("two clients of one run drew the same ops")
	}
	if render(newReadStream(7, 1, 0, 5000, false).next, 100) == render(newReadStream(7, 2, 0, 5000, false).next, 100) {
		t.Error("two workloads at one seed drew the same ops")
	}
	z0, z1 := newReadStream(7, 2, 0, 5000, true), newReadStream(7, 2, 1, 5000, true)
	for i := range z0.perm {
		if z0.perm[i] != z1.perm[i] {
			t.Fatal("two clients of one run disagree on the Zipf rank -> user permutation")
		}
	}
}

func TestReadMixAndZipfShape(t *testing.T) {
	const n = 20000
	var kinds [numOpKinds]int
	s := newReadStream(1, 1, 0, 5000, false)
	for i := 0; i < n; i++ {
		kinds[s.next().kind]++
	}
	for k, want := range map[opKind]float64{opQuery: 0.70, opProximity: 0.20, opBatch: 0.10} {
		if got := float64(kinds[k]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%v share %.3f, want %.2f", k, got, want)
		}
	}
	if kinds[opUpdate] != 0 {
		t.Error("a read stream drew an update")
	}
	// Zipf: the hottest user takes a large share, and a batch is the lead
	// rank's block, so a repeated lead repeats the whole request.
	z := newReadStream(1, 2, 0, 5000, true)
	hot := z.perm[0]
	lead := 0
	for i := 0; i < n; i++ {
		p := z.next()
		if p.x == hot {
			lead++
			if p.batch[1] != z.perm[1] || p.y != z.perm[1] {
				t.Fatal("ops on the hottest rank are not one deterministic block")
			}
		}
	}
	if share := float64(lead) / n; share < 0.1 {
		t.Errorf("hottest user drew %.3f of Zipf(1.2) ops, want a hot head", share)
	}
}
