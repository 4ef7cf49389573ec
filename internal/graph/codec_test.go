package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomDelta builds an arbitrary (not necessarily valid on any graph) delta; the
// codec must round-trip any Delta value, validity is Apply's job.
func randomDelta(rng *rand.Rand) Delta {
	var d Delta
	for i := rng.Intn(5); i > 0; i-- {
		d.Nodes = append(d.Nodes, DeltaNode{
			Type:  []string{"user", "school", "", "hobby with spaces", "\x00\xff"}[rng.Intn(5)],
			Value: []string{"", "Alice", "node-42", "名前", "a\nb"}[rng.Intn(5)],
		})
	}
	for i := rng.Intn(8); i > 0; i-- {
		d.Edges = append(d.Edges, Edge{
			U: NodeID(rng.Int31()) - NodeID(rng.Intn(2)), // occasionally negative
			V: NodeID(rng.Int31n(1000)),
		})
	}
	return d
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		want := randomDelta(rng)
		got, err := DecodeDelta(EncodeDelta(want))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		// Encode/Decode normalizes nil vs empty slices only when both are
		// empty, which Empty() treats identically.
		if len(want.Nodes) == 0 && len(got.Nodes) == 0 && len(want.Edges) == 0 && len(got.Edges) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestValidateDeltaMatchesRoundTrip: ValidateDelta's verdict must agree
// with an actual encode/decode round trip — it is the WAL's cheap stand-in
// for one on the durable write path.
func TestValidateDeltaMatchesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(d Delta) {
		t.Helper()
		_, derr := DecodeDelta(EncodeDelta(d))
		verr := ValidateDelta(d)
		if (derr == nil) != (verr == nil) {
			t.Fatalf("ValidateDelta (%v) disagrees with round trip (%v) on %+v", verr, derr, d)
		}
	}
	for trial := 0; trial < 100; trial++ {
		check(randomDelta(rng))
	}
	big := string(make([]byte, maxDeltaString+1))
	check(Delta{Nodes: []DeltaNode{{Type: big, Value: "x"}}})
	check(Delta{Nodes: []DeltaNode{{Type: "user", Value: big}}})
	check(Delta{Nodes: []DeltaNode{{Type: "user", Value: string(make([]byte, maxDeltaString))}}})
}

func TestDeltaCodecEmpty(t *testing.T) {
	b := EncodeDelta(Delta{})
	if len(b) != 2 {
		t.Fatalf("empty delta encodes to %d bytes, want 2", len(b))
	}
	d, err := DecodeDelta(b)
	if err != nil || !d.Empty() {
		t.Fatalf("empty round trip: %+v, %v", d, err)
	}
}

func TestDeltaCodecRejectsCorruptInput(t *testing.T) {
	valid := EncodeDelta(Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}},
		Edges: []Edge{{U: 1, V: 2}},
	})
	// Every strict prefix is truncated and must error.
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeDelta(valid[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", i, len(valid))
		}
	}
	// Trailing garbage must error.
	if _, err := DecodeDelta(append(append([]byte(nil), valid...), 0x01)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A count far beyond the input must error, not allocate.
	if _, err := DecodeDelta([]byte{0xff, 0xff, 0xff, 0xff, 0x07}); err == nil {
		t.Fatal("giant node count accepted")
	}
}

// FuzzDeltaDecode is the satellite guarantee: DecodeDelta never panics on
// arbitrary bytes, and any delta it does accept re-encodes and re-decodes
// to the same value.
func FuzzDeltaDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeDelta(Delta{}))
	f.Add(EncodeDelta(Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}, {Type: "school", Value: "College Z"}},
		Edges: []Edge{{U: 0, V: 7}, {U: -1, V: 1 << 30}},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDelta(b)
		if err != nil {
			return
		}
		again, err := DecodeDelta(EncodeDelta(d))
		if err != nil {
			t.Fatalf("re-decode of accepted delta failed: %v", err)
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("re-decode drifted:\n got %+v\nwant %+v", again, d)
		}
	})
}
