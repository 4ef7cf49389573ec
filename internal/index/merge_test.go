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

// sortMerge is Merge as it was before the k-way pass, over the parts' node
// tables and the pair tables their runs hold: sort the union of the part
// keys, binary-search every part key in it, fill rows by cursor. Kept as
// the reference the merge of runs must reproduce byte for byte.
func sortMerge(parts ...*Index) *Index {
	numMeta := 0
	offsets := make([]int32, len(parts))
	mx := make([]*csr[graph.NodeID], len(parts))
	mxy := make([]*csr[PairKey], len(parts))
	for i, p := range parts {
		offsets[i] = int32(numMeta)
		numMeta += p.numMeta
		nodes, pairs := p.nodeTable(), p.pairTable()
		mx[i], mxy[i] = &nodes, &pairs
	}
	pairs := sortMergeCSR(mxy, offsets)
	return rowsIndex(numMeta, sortMergeCSR(mx, offsets), &pairs)
}

func sortMergeCSR[K cmp.Ordered](tables []*csr[K], offsets []int32) csr[K] {
	var union []K
	totalEnt := 0
	for _, c := range tables {
		union = append(union, c.keys...)
		totalEnt += len(c.ent)
	}
	if totalEnt == 0 {
		return csr[K]{}
	}
	slices.Sort(union)
	keys := slices.Clone(slices.Compact(union))
	off := make([]int32, len(keys)+1)
	for _, c := range tables {
		for ki, k := range c.keys {
			at, _ := slices.BinarySearch(keys, k)
			off[at+1] += c.off[ki+1] - c.off[ki]
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	ent := make([]Entry, totalEnt)
	cur := slices.Clone(off[:len(keys)])
	for pi, c := range tables {
		for ki, k := range c.keys {
			at, _ := slices.BinarySearch(keys, k)
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
	asym := matchPart(metagraph.MustNew([]graph.TypeID{tUser, tSchool, tMajor},
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
		part := matchPart(m, match.NewSymISO(rg))
		random = append(random, part)
		patched = append(patched, mustPatch(t, part, RematchDelta(ng, m, nil, nil)))
	}
	fixtures["random graphs "] = random
	fixtures["patched part"] = patched
	return fixtures
}

// TestMergeKWayEqualsConcatenation: the merge of the parts' runs writes the
// bytes the sort-and-search merge of their rows wrote, on every fixture.
func TestMergeKWayEqualsConcatenation(t *testing.T) {
	for name, parts := range mergeFixtures(t) {
		got, want := Merge(parts...), sortMerge(parts...)
		if got.NumMeta() != want.NumMeta() {
			t.Fatalf("%s: merge spans %d metagraphs, want %d", name, got.NumMeta(), want.NumMeta())
		}
		if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
			t.Fatalf("%s: k-way merge differs from the sort-based merge", name)
		}
		checkAdjacency(t, name, got, want, 16)
	}
}

// spread places metagraph i of ms at slots[i] of a set of span, for
// refBuild to count at those slots.
func spread(ms []*metagraph.Metagraph, slots []int, span int) []*metagraph.Metagraph {
	out := make([]*metagraph.Metagraph, span)
	for i, m := range ms {
		out[slots[i]] = m
	}
	return out
}

// TestAddPartsEqualsOneBuild: parts added to an index at their slots, in any
// order and over several calls, at slots that leave gaps, freeze to the
// bytes of ONE build of the same metagraphs at the same slots, the map
// counter's — the rows of an added part land between the coordinates
// already there.
func TestAddPartsEqualsOneBuild(t *testing.T) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	matcher := match.NewSymISO(g)
	parts, _ := MatchParts(mgs, func() match.Matcher { return matcher }, 1)
	const span = 9
	slots := []int{7, 0, 4, 2} // metagraph i of the toy set sits at slots[i]; 1, 3, 5, 6, 8 stay unmatched

	want := writeBytes(t, refBuild(spread(mgs, slots, span), slots, g))

	empty := Empty(span)
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

	// Adding to a patched index keeps the counts an update added.
	base := empty.AddParts(slots[:1], parts[:1])
	patched := mustPatch(t, base, handPatch(span, map[graph.NodeID][]Entry{0: {{Meta: int32(slots[0]), Count: 42}}}, nil))
	grown := patched.AddParts(slots[1:2], parts[1:2])
	if want := base.NodeVec(0).Get(slots[0]) + 42; grown.NodeVec(0).Get(slots[0]) != want {
		t.Fatalf("adding to a patched index: patched coordinate %v, want %v", grown.NodeVec(0).Get(slots[0]), want)
	}
}

// TestRestrictEqualsBuildOfKept: restricting an index to a metagraph subset
// — every subset of the toy set, at slots that leave gaps — gives the bytes
// of one build of only the kept metagraphs at the same slots (refBuild),
// and a patched index restricts to its kept metagraphs' rows projected out
// one by one and added back at their slots. Nothing is renumbered, so the span
// stands and a weight vector over it reads the restricted index as it read
// the whole one, minus the dropped coordinates.
func TestRestrictEqualsBuildOfKept(t *testing.T) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	matcher := match.NewSymISO(g)
	parts, _ := MatchParts(mgs, func() match.Matcher { return matcher }, 1)
	const span = 9
	slots := []int{7, 0, 4, 2}
	empty := Empty(span)
	full := empty.AddParts(slots, parts)
	patched := mustPatch(t, full, selfPatch(full, g.NumNodes()))
	for mask := 0; mask < 1<<len(mgs); mask++ {
		keep := make([]bool, span)
		var kept []int
		for i := range mgs {
			if mask&(1<<i) != 0 {
				keep[slots[i]] = true
				kept = append(kept, slots[i])
			}
		}
		oneByOne := func(ix *Index) []byte {
			var ps []*Index
			for _, slot := range kept {
				ps = append(ps, ix.Project([]int{slot}))
			}
			return writeBytes(t, empty.AddParts(kept, ps))
		}
		for name, c := range map[string]struct {
			ix   *Index
			want []byte
		}{
			"plain":   {full, writeBytes(t, refBuild(spread(mgs, slots, span), kept, g))},
			"patched": {patched, oneByOne(patched)},
		} {
			got := c.ix.Restrict(keep)
			if got.NumMeta() != span {
				t.Fatalf("mask %04b %s: spans %d", mask, name, got.NumMeta())
			}
			if !bytes.Equal(writeBytes(t, got), c.want) {
				t.Fatalf("mask %04b %s: differs from the kept metagraphs alone", mask, name)
			}
			for i, used := range got.MetaSupport() {
				if used && !keep[i] {
					t.Fatalf("mask %04b %s: holds rows of dropped metagraph %d", mask, name, i)
				}
			}
		}
	}
}

// TestMergeGainsEqualsPerPartPatches is item 2(c): lifting every matched
// metagraph's gains to its slot and patching the merged index ONCE gives the
// bytes of patching every part and merging again, and the lifted patch
// names exactly the keys that gained.
func TestMergeGainsEqualsPerPartPatches(t *testing.T) {
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
		var parts, patchedParts []*Index
		var gains []*Patch
		var enumerated int64
		for _, m := range ms {
			part, p := matchPart(m, match.NewSymISO(g)), RematchDelta(ng, m, nil, nil)
			patchedParts = append(patchedParts, mustPatch(t, part, p))
			parts, gains = append(parts, part), append(gains, p)
			enumerated += p.Enumerated()
		}
		empty := Empty(span)
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
		got := mustPatch(t, empty.AddParts(slots, parts), lifted)
		want := empty.AddParts(slots, patchedParts)
		if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
			t.Fatalf("trial %d: one lifted patch differs from per-part patches merged", trial)
		}
		checkAdjacency(t, "lifted patch", got, want, ng.NumNodes())
		readsCounts(t, got)
	}
	if p := MergeGains(span, nil, nil); !p.Empty() || p.numMeta != span {
		t.Fatal("no gains must lift to an empty patch")
	}
}

// TestFootprint: the size follows the slices of the runs, fresh and
// patched, and the runs are the only store of the counts: each m_xy[m] is
// two postings, each m_x[m] one header, and no table holds either.
func TestFootprint(t *testing.T) {
	_, ix := buildToyIndex(t)
	// The patch names a node beyond the index, which widens the runs' node
	// range.
	patched := mustPatch(t, ix, selfPatch(ix, 14))
	for label, c := range map[string]*Index{"fresh": ix, "patched": patched} {
		rs := &c.flat
		if got, want := c.Footprint(), 4*int64(len(rs.first)+len(rs.off))+8*int64(len(rs.head)+len(rs.post)); got != want || got <= 0 {
			t.Fatalf("%s index: %d bytes, the slices hold %d", label, got, want)
		}
		if pairs := c.pairTable(); len(rs.post) != 2*len(pairs.ent) {
			t.Fatalf("%s index: the runs hold %d postings for %d pair coordinates", label, len(rs.post), len(pairs.ent))
		}
		if nodes := c.nodeTable(); len(rs.head) != len(nodes.ent) {
			t.Fatalf("%s index: the runs have %d headers for %d node coordinates", label, len(rs.head), len(nodes.ent))
		}
	}
	if pp, fp := patched.Footprint(), ix.Footprint(); pp <= fp {
		t.Fatalf("patched: %d bytes (was %d)", pp, fp)
	}
}
