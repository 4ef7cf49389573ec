package index

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// sortMerge is Merge as it was before the k-way pass: sort the union of the
// part keys, binary-search every part key in it, fill rows by cursor. Kept
// as the reference the k-way merge must reproduce byte for byte.
func sortMerge(parts ...*Index) *Index {
	out := &Index{adj: &lazyAdjacency{}}
	offsets := make([]int32, len(parts))
	for i, p := range parts {
		offsets[i] = int32(out.numMeta)
		out.numMeta += p.numMeta
	}
	out.mx = sortMergeCSR(parts, offsets, func(p *Index) *csr[graph.NodeID] { return &p.mx })
	out.mxy = sortMergeCSR(parts, offsets, func(p *Index) *csr[PairKey] { return &p.mxy })
	return out
}

func sortMergeCSR[K cmp.Ordered](parts []*Index, offsets []int32, table func(*Index) *csr[K]) csr[K] {
	var union []K
	totalEnt := 0
	for _, p := range parts {
		union = append(union, table(p).keys...)
		totalEnt += len(table(p).ent)
	}
	if totalEnt == 0 {
		return csr[K]{}
	}
	slices.Sort(union)
	keys := slices.Clone(slices.Compact(union))
	off := make([]int32, len(keys)+1)
	for _, p := range parts {
		c := table(p)
		for ki, k := range c.keys {
			off[findKey(keys, k)+1] += c.off[ki+1] - c.off[ki]
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	ent := make([]Entry, totalEnt)
	cur := slices.Clone(off[:len(keys)])
	for pi, p := range parts {
		c := table(p)
		for ki, k := range c.keys {
			at := findKey(keys, k)
			for _, e := range c.ent[c.off[ki]:c.off[ki+1]] {
				ent[cur[at]] = Entry{e.Meta + offsets[pi], e.Count}
				cur[at]++
			}
		}
	}
	return csr[K]{keys: keys, off: off, ent: ent}
}

// mergeFixtures are part lists with everything a merge meets: overlapping
// and disjoint keys, empty parts (an asymmetric metagraph matches nothing),
// a part that is itself a merge, one part, none.
func mergeFixtures(t *testing.T) map[string][]*Index {
	t.Helper()
	g := buildToy(t)
	toy, _ := MatchParts(toyMetagraphs(), func() match.Matcher { return match.NewSymISO(g) }, 1)
	asym := matchOne(metagraph.MustNew([]graph.TypeID{tUser, tSchool, tMajor},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}), match.NewSymISO(g))
	fixtures := map[string][]*Index{
		"toy M1-M4":      toy,
		"toy reversed":   {toy[3], toy[2], toy[1], toy[0]},
		"empty parts":    {asym, toy[0], asym, asym, toy[2], asym},
		"only empty":     {asym, asym},
		"one part":       {toy[1]},
		"none":           nil,
		"merged part":    {toy[0], Merge(toy[1], asym, toy[2]), toy[3]},
		"same part x3":   {toy[2], toy[2], toy[2]},
		"patched part":   nil, // filled in below
		"random graphs ": nil,
	}
	rng := rand.New(rand.NewSource(7))
	rg, d := randTyped(rng)
	ng, _, err := rg.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	var random, patched []*Index
	for _, m := range patchMetagraphs() {
		part := matchOne(m, match.NewSymISO(rg))
		random = append(random, part)
		patched = append(patched, part.WithPatch(RematchDelta(ng, m, nil, nil)))
	}
	fixtures["random graphs "] = random
	fixtures["patched part"] = patched
	return fixtures
}

// TestMergeKWayEqualsConcatenation: the k-way merge writes the bytes the
// sort-and-search merge wrote, on every fixture.
func TestMergeKWayEqualsConcatenation(t *testing.T) {
	for name, parts := range mergeFixtures(t) {
		compacted := make([]*Index, len(parts))
		for i, p := range parts {
			compacted[i] = p.Compact()
		}
		got, want := Merge(parts...), sortMerge(compacted...)
		if got.NumMeta() != want.NumMeta() {
			t.Fatalf("%s: merge spans %d metagraphs, want %d", name, got.NumMeta(), want.NumMeta())
		}
		if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
			t.Fatalf("%s: k-way merge differs from the sort-based merge", name)
		}
		if got.HasAdjacency() || got.Pending() {
			t.Fatalf("%s: a merge starts flat, its adjacency unbuilt", name)
		}
	}
}

// TestAddPartsEqualsOneBuild: parts added to an index at their slots, in any
// order and over several calls, at slots that leave gaps, freeze to the
// bytes of ONE Builder fed the same metagraphs at the same slots — the
// rows of an added part land between the coordinates already there.
func TestAddPartsEqualsOneBuild(t *testing.T) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	matcher := match.NewSymISO(g)
	parts, _ := MatchParts(mgs, func() match.Matcher { return matcher }, 1)
	const span = 9
	slots := []int{7, 0, 4, 2} // metagraph i of the toy set sits at slots[i]; 1, 3, 5, 6, 8 stay unmatched

	bld := NewBuilder(span)
	for i, m := range mgs {
		bld.AddMetagraph(slots[i], m, matcher)
	}
	want := writeBytes(t, bld.Build())

	empty := NewBuilder(span).Build()
	for name, got := range map[string]*Index{
		"all at once":   empty.AddParts(slots, parts),
		"one at a time": empty.AddParts(slots[:1], parts[:1]).AddParts(slots[1:2], parts[1:2]).AddParts(slots[2:3], parts[2:3]).AddParts(slots[3:], parts[3:]),
		"high slots first": empty.AddParts([]int{slots[0], slots[2]}, []*Index{parts[0], parts[2]}).
			AddParts([]int{slots[3], slots[1]}, []*Index{parts[3], parts[1]}),
		"nothing to add": empty.AddParts(slots, parts).AddParts(nil, nil),
	} {
		if got.NumMeta() != span {
			t.Fatalf("%s: spans %d metagraphs, want %d", name, got.NumMeta(), span)
		}
		if !bytes.Equal(writeBytes(t, got), want) {
			t.Fatalf("%s: differs from one build at the same slots", name)
		}
	}

	support := empty.AddParts(slots[:2], parts[:2]).MetaSupport()
	for i, used := range support {
		if used != (i == slots[0] || i == slots[1]) {
			t.Fatalf("MetaSupport = %v after adding slots %v", support, slots[:2])
		}
	}

	// Adding to a patched index compacts it first: the rows an update patched
	// in are there, and nothing is pending.
	base := empty.AddParts(slots[:1], parts[:1])
	patched := base.WithPatch(handPatch(span, map[graph.NodeID][]Entry{0: {{Meta: int32(slots[0]), Count: 42}}}, nil))
	grown := patched.AddParts(slots[1:2], parts[1:2])
	if grown.Pending() || grown.NodeVec(0).Get(slots[0]) != 42 {
		t.Fatalf("adding to a patched index: pending %v, patched coordinate %v", grown.Pending(), grown.NodeVec(0).Get(slots[0]))
	}
}

// TestMergeGainsEqualsPerPartPatches is item 2(c): lifting every matched
// metagraph's gains to its slot and patching the merged index ONCE gives the
// bytes of patching every part and merging again — for raw counts and under
// a transform, which the gains pass by (they add to counts) and the result
// still reads through — and the lifted patch names exactly the keys that
// gained.
func TestMergeGainsEqualsPerPartPatches(t *testing.T) {
	double := func(c float64) float64 { return 2 * c }
	rng := rand.New(rand.NewSource(11))
	ms := patchMetagraphs()
	slots := []int{1, 3, 4}
	const span = 6
	for trial := 0; trial < 40; trial++ {
		g, d := randTyped(rng)
		ng, _, err := g.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []func(float64) float64{nil, double} {
			transformed := f != nil
			var parts, patchedParts []*Index
			var gains []*Patch
			var enumerated int64
			for _, m := range ms {
				part, p := matchOne(m, match.NewSymISO(g)).Transform(f), RematchDelta(ng, m, nil, nil)
				patchedParts = append(patchedParts, part.WithPatch(p))
				parts, gains = append(parts, part), append(gains, p)
				enumerated += p.Enumerated()
			}
			empty := NewBuilder(span).Build().Transform(f)
			lifted := MergeGains(span, slots, gains)
			if lifted.numMeta != span || lifted.Enumerated() != enumerated {
				t.Fatalf("trial %d: lifted patch spans %d, enumerated %d; want %d, %d", trial, lifted.numMeta, lifted.Enumerated(), span, enumerated)
			}
			var nodeKeys []graph.NodeID
			for _, p := range gains {
				nodeKeys = append(nodeKeys, p.NodeKeys()...)
			}
			slices.Sort(nodeKeys)
			if !slices.Equal(lifted.NodeKeys(), slices.Compact(nodeKeys)) {
				t.Fatalf("trial %d: lifted patch names nodes %v, the parts gained on %v", trial, lifted.NodeKeys(), nodeKeys)
			}
			merged := empty.AddParts(slots, parts)
			merged.BuildAdjacency()
			got := merged.WithPatch(lifted)
			want := empty.AddParts(slots, patchedParts)
			if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
				t.Fatalf("trial %d (transformed %v): one lifted patch differs from per-part patches merged", trial, transformed)
			}
			checkAdjacency(t, "lifted patch", got, want, ng.NumNodes())
			readsThrough(t, got, f)
		}
	}
	if p := MergeGains(span, nil, nil); !p.Empty() || p.numMeta != span {
		t.Fatal("no gains must lift to an empty patch")
	}
}

// TestFootprint: the sizes follow the slices — an adjacency counts once it is
// built, an overlay until it is compacted.
func TestFootprint(t *testing.T) {
	_, ix := buildToyIndex(t)
	fp := ix.Footprint()
	if fp.Tables <= 0 || fp.Adjacency != 0 || fp.Overlay != 0 || fp.OverlayRows != 0 {
		t.Fatalf("fresh index: %+v", fp)
	}
	ix.BuildAdjacency()
	built := ix.Footprint()
	if built.Tables != fp.Tables || built.Adjacency <= 0 || built.Overlay != 0 {
		t.Fatalf("after BuildAdjacency: %+v (was %+v)", built, fp)
	}
	patched := ix.WithPatch(selfPatch(ix, 14))
	pp := patched.Footprint()
	if pp.Tables != fp.Tables || pp.Overlay <= 0 || pp.OverlayRows == 0 || pp.Adjacency <= 0 {
		t.Fatalf("patched: %+v", pp)
	}
	if cp := patched.Compact().Footprint(); cp.Overlay != 0 || cp.OverlayRows != 0 || cp.Adjacency != 0 {
		t.Fatalf("compacted: %+v", cp)
	}
}
