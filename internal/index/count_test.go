package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// refBuild is the map-based counter the sorting Builder replaced, kept as
// the reference it is checked against: per metagraph, in the given order,
// one hash-map counter per touched key, its counts appended to per-key rows.
func refBuild(ms []*metagraph.Metagraph, order []int, matcher match.Matcher) *Index {
	mx, mxy := map[graph.NodeID][]Entry{}, map[PairKey][]Entry{}
	for _, i := range order {
		m := ms[i]
		symPairs := m.SymmetricPairs()
		seen := map[int]bool{}
		var posSet []int
		for _, p := range symPairs {
			for _, v := range []int{p.U, p.V} {
				if !seen[v] {
					seen[v] = true
					posSet = append(posSet, v)
				}
			}
		}
		nodeCount, pairCount := map[graph.NodeID]uint64{}, map[PairKey]uint64{}
		if len(symPairs) > 0 {
			match.Instances(matcher, m, func(a []graph.NodeID) bool {
				for _, p := range symPairs {
					pairCount[MakePairKey(a[p.U], a[p.V])]++
				}
				for _, p := range posSet {
					nodeCount[a[p]]++
				}
				return true
			})
		}
		for k, c := range pairCount {
			mxy[k] = append(mxy[k], Entry{int32(i), uint32(c)})
		}
		for k, c := range nodeCount {
			mx[k] = append(mx[k], Entry{int32(i), uint32(c)})
		}
	}
	return &Index{numMeta: len(ms), mx: tableOf(mx), mxy: tableOf(mxy), adj: &lazyAdjacency{}}
}

// Types of countGraph.
const (
	cUser graph.TypeID = iota
	cSchool
	cHobby
	cClub // registered, never instantiated
)

// countGraph draws a user/school/hobby graph with a few friendships. With
// few attributes every user holds many of, one user pair shares several
// schools and several hobbies: the shape on which one key has many
// instances of a 4-node metagraph.
func countGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	for _, n := range []string{"user", "school", "hobby", "club"} {
		b.Types().Register(n)
	}
	nu, ns, nh := 5+rng.Intn(60), 1+rng.Intn(6), 1+rng.Intn(6)
	var users, attrs []graph.NodeID
	for i := 0; i < nu; i++ {
		users = append(users, b.AddNode("user", ""))
	}
	for i := 0; i < ns; i++ {
		attrs = append(attrs, b.AddNode("school", ""))
	}
	for i := 0; i < nh; i++ {
		attrs = append(attrs, b.AddNode("hobby", ""))
	}
	for _, u := range users {
		for j := rng.Intn(len(attrs) + 1); j >= 0; j-- {
			b.AddEdge(u, attrs[rng.Intn(len(attrs))])
		}
		if rng.Intn(3) == 0 {
			b.AddEdge(u, users[rng.Intn(nu)])
		}
	}
	return b.MustBuild()
}

// randMetagraph draws a connected 3- or 4-node pattern over user, school
// and hobby: a random spanning tree plus random extra edges. Most draws are
// asymmetric, which the Builder skips.
func randMetagraph(rng *rand.Rand) *metagraph.Metagraph {
	n := 3 + rng.Intn(2)
	types := make([]graph.TypeID, n)
	for i := range types {
		types[i] = graph.TypeID(rng.Intn(3))
	}
	var edges []metagraph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, metagraph.Edge{U: rng.Intn(v), V: v})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(4) == 0 {
				edges = append(edges, metagraph.Edge{U: u, V: v})
			}
		}
	}
	return metagraph.MustNew(types, edges)
}

// countMetagraphs returns random patterns plus fixed symmetric ones: the
// user–school–user metapath, the two 4-node cycles over a user pair (many
// instances per pair when users share several attributes), a friendship
// triangle through a school, and a user–club–user path that has no
// instance.
func countMetagraphs(rng *rand.Rand) []*metagraph.Metagraph {
	ms := []*metagraph.Metagraph{
		metagraph.MustNew([]graph.TypeID{cUser, cSchool, cUser}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{cUser, cUser, cSchool, cHobby},
			[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}}),
		metagraph.MustNew([]graph.TypeID{cUser, cUser, cSchool, cSchool},
			[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}}),
		metagraph.MustNew([]graph.TypeID{cUser, cUser, cSchool}, []metagraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{cUser, cClub, cUser}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
	}
	for i := 3 + rng.Intn(4); i > 0; i-- {
		ms = append(ms, randMetagraph(rng))
	}
	rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	return ms
}

// TestQuickBuilderEqualsMapCounter: over random graphs and metagraphs, the
// sorting Builder freezes the index the map-based counter does, byte for
// byte, whether metagraphs arrive in ascending or descending order. The
// trials must include the shapes the sort has to get right: keys with long
// runs, inputs on both sides of the small-sort threshold, and a symmetric
// metagraph with no instance.
func TestQuickBuilderEqualsMapCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var longestRun uint32
	var small, large, empty bool
	for trial := 0; trial < 60; trial++ {
		g := countGraph(rng)
		ms := countMetagraphs(rng)
		matcher := match.NewSymISO(g)
		asc := make([]int, len(ms))
		for i := range asc {
			asc[i] = i
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		want := writeBytes(t, refBuild(ms, asc, matcher))
		for _, order := range [][]int{asc, desc} {
			b := NewBuilder(len(ms))
			for _, i := range order {
				b.AddMetagraph(i, ms[i], matcher)
			}
			if !bytes.Equal(writeBytes(t, b.Build()), want) {
				t.Fatalf("trial %d, order %v: sorting Builder differs from the map counter", trial, order)
			}
		}
		for _, m := range ms {
			if len(m.SymmetricPairs()) == 0 {
				continue
			}
			n := int(match.CountInstances(matcher, m)) * len(m.SymmetricPairs())
			small, large = small || n > 0 && n < smallSort, large || n >= smallSort
			empty = empty || n == 0
			for _, e := range matchOne(m, matcher).mxy.ent {
				longestRun = max(longestRun, e.Count)
			}
		}
	}
	if longestRun < 20 || !small || !large || !empty {
		t.Fatalf("trials too tame: longest run %d, below threshold %v, above %v, no instance %v", longestRun, small, large, empty)
	}
}

// TestRadixSortEqualsSlicesSort: for every key width 0–64 (zero to six
// digit passes), at sizes on both sides of the small-sort threshold, with
// one key and with all keys equal, radixSort returns what slices.Sort does.
func TestRadixSortEqualsSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	check := func(width int, keys []uint64) {
		t.Helper()
		want := slices.Clone(keys)
		slices.Sort(want)
		got := radixSort(keys, make([]uint64, len(keys)), width)
		if !slices.Equal(got, want) {
			t.Fatalf("width %d, %d keys: radixSort disagrees with slices.Sort", width, len(keys))
		}
	}
	draw := func(width, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() >> (64 - width)
		}
		return keys
	}
	for width := 0; width <= 64; width++ {
		for _, n := range []int{0, 1, smallSort - 1, smallSort, smallSort + 1, 2000 + rng.Intn(3000)} {
			check(width, draw(width, n))
		}
		check(width, slices.Repeat(draw(width, 1), 3*smallSort))
	}
}

// TestAddMetagraphRefusesBadSlot: a slot outside the builder, or one added
// before, panics naming it; no caller does either.
func TestAddMetagraphRefusesBadSlot(t *testing.T) {
	g := buildToy(t)
	m := toyMetagraphs()[2]
	matcher := match.NewSymISO(g)
	for _, i := range []int{-1, 4} {
		mustPanic(t, fmt.Sprintf("AddMetagraph(%d) on 4 metagraphs", i), fmt.Sprintf("AddMetagraph(%d)", i), func() {
			NewBuilder(4).AddMetagraph(i, m, matcher)
		})
	}
	b := NewBuilder(4)
	b.AddMetagraph(2, m, matcher)
	mustPanic(t, "a slot added twice", "AddMetagraph(2): metagraph 2 was already added", func() { b.AddMetagraph(2, m, matcher) })
	asym := metagraph.MustNew([]graph.TypeID{tUser, tSchool, tMajor}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	b.AddMetagraph(3, asym, matcher)
	mustPanic(t, "an asymmetric slot added twice", "AddMetagraph(3)", func() { b.AddMetagraph(3, asym, matcher) })
}

// TestCounterScratchStopsGrowing: a worker's scratch grows to its largest
// metagraph and is reused after that — counting the same metagraphs again
// moves none of its slices.
func TestCounterScratchStopsGrowing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, ms := countGraph(rng), countMetagraphs(rng)
	matcher := match.NewSymISO(g)
	sc := &counter{}
	for _, m := range ms {
		sc.part(m, matcher)
	}
	scratch := func() []unsafe.Pointer {
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(sc.pairs)), unsafe.Pointer(unsafe.SliceData(sc.counts)),
			unsafe.Pointer(unsafe.SliceData(sc.touched)), unsafe.Pointer(unsafe.SliceData(sc.buf))}
	}
	grown := scratch()
	if slices.Contains(grown, nil) {
		t.Fatal("the metagraphs wrote no keys, counted no node or never needed the radix buffer")
	}
	if i := slices.IndexFunc(sc.counts, func(n uint64) bool { return n != 0 }); i >= 0 {
		t.Fatalf("node %d's count survived its metagraph", i)
	}
	for _, m := range ms {
		sc.part(m, matcher)
	}
	if !slices.Equal(scratch(), grown) {
		t.Fatal("a second pass over the same metagraphs reallocated the scratch")
	}
}
