package index

import (
	"bytes"
	"cmp"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
)

// csr is a table of rows of Entry keyed by K: sorted keys, per-row offsets
// and one arena, row i being ent[off[i]:off[i+1]]. The tests hold node rows
// and pair rows in it; the index keeps neither table. The zero value is
// the empty table.
type csr[K cmp.Ordered] struct {
	keys []K
	off  []int32 // len(keys)+1 when keys is non-empty
	ent  []Entry
}

// appendRow appends the row of key k, which must be above every key c
// holds.
func (c *csr[K]) appendRow(k K, row []Entry) {
	if len(c.off) == 0 {
		c.off = append(c.off, 0)
	}
	c.keys = append(c.keys, k)
	c.ent = append(c.ent, row...)
	c.off = append(c.off, int32(len(c.ent)))
}

// each calls yield with every row of c, in key order.
func (c *csr[K]) each(yield func(K, []Entry)) {
	for i, k := range c.keys {
		yield(k, c.ent[c.off[i]:c.off[i+1]])
	}
}

// refRuns is the reference layout of node rows mx and pair rows, in the
// plainest terms: every coordinate m_xy[m] = c becomes the posting {y, c}
// of x's run of m and {x, c} of y's, every m_x[m] = c the header {m, c} of
// x's run of m, and the runs, sorted by node and metagraph, hold their
// postings sorted by partner. A run with postings and no node count gets
// the header {m, 0}, which no constructor lays out; a node count with no
// postings gets a run of none, as Select and a rooted count lay it out.
func refRuns(mx *csr[graph.NodeID], rows *csr[PairKey]) adjRuns {
	type at struct {
		node graph.NodeID
		meta int32
	}
	post, count := map[at][]posting{}, map[at]uint32{}
	rows.each(func(k PairKey, row []Entry) {
		x, y := k.Nodes()
		for _, e := range row {
			post[at{x, e.Meta}] = append(post[at{x, e.Meta}], posting{y, e.Count})
			post[at{y, e.Meta}] = append(post[at{y, e.Meta}], posting{x, e.Count})
		}
	})
	mx.each(func(x graph.NodeID, row []Entry) {
		for _, e := range row {
			count[at{x, e.Meta}] = e.Count
		}
	})
	keys := slices.Collect(maps.Keys(post))
	for k := range count {
		if _, ok := post[k]; !ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return adjRuns{}
	}
	slices.SortFunc(keys, func(a, b at) int { return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.meta, b.meta)) })
	n := int(keys[len(keys)-1].node) + 1
	rs := adjRuns{first: make([]int32, n+1), off: []int32{0}}
	for _, k := range keys {
		ps := post[k]
		slices.SortFunc(ps, func(a, b posting) int { return cmp.Compare(a.node, b.node) })
		rs.head = append(rs.head, Entry{k.meta, count[k]})
		rs.post = append(rs.post, ps...)
		rs.off = append(rs.off, int32(len(rs.post)))
		rs.first[k.node+1] = int32(len(rs.head))
	}
	for v := 1; v <= n; v++ {
		rs.first[v] = max(rs.first[v], rs.first[v-1])
	}
	return rs
}

// metas lists the metagraph of every entry c holds.
func (c *csr[K]) metas() []int32 {
	ms := make([]int32, len(c.ent))
	for i, e := range c.ent {
		ms[i] = e.Meta
	}
	return ms
}

// nodesOf is a node table for pair rows: m_x[m] folds the counts of x's
// pairs in m, each fold(so far, count) from 0.
func nodesOf(rows *csr[PairKey], fold func(acc uint64, c uint32) uint64) csr[graph.NodeID] {
	acc := map[graph.NodeID]map[int32]uint64{}
	add := func(v graph.NodeID, e Entry) {
		if acc[v] == nil {
			acc[v] = map[int32]uint64{}
		}
		acc[v][e.Meta] = fold(acc[v][e.Meta], e.Count)
	}
	rows.each(func(k PairKey, row []Entry) {
		x, y := k.Nodes()
		for _, e := range row {
			add(x, e)
			add(y, e)
		}
	})
	nodes := map[graph.NodeID][]Entry{}
	for v, row := range acc {
		for m, c := range row {
			nodes[v] = append(nodes[v], Entry{m, uint32(c)})
		}
	}
	return tableOf(nodes)
}

// sumsOf is the node table the divisor 1 derives from pair rows: m_x[m] is
// the sum of x's pair counts in m, which must fit a uint32.
func sumsOf(rows *csr[PairKey]) csr[graph.NodeID] {
	return nodesOf(rows, func(acc uint64, c uint32) uint64 { return acc + uint64(c) })
}

// degreesOf is the node table of partner counts: m_x[m] is the number of
// x's partners in m. Any count of at least 1 on each run lays out; this one
// always fits, and it is the count a divisor of 1 derives where every pair
// count is 1.
func degreesOf(rows *csr[PairKey]) csr[graph.NodeID] {
	return nodesOf(rows, func(acc uint64, _ uint32) uint64 { return acc + 1 })
}

// maxOf is a node table whose counts reach as high as the pairs': m_x[m] is
// the largest count among x's pairs in m.
func maxOf(rows *csr[PairKey]) csr[graph.NodeID] {
	return nodesOf(rows, func(acc uint64, c uint32) uint64 { return max(acc, uint64(c)) })
}

// upperOf hands node rows mx and pair rows over as the counter, Select and
// a Patch do: the pair rows as the runs above each node — per smaller node
// x, ascending, its run of each metagraph, ascending, of the partners
// above x — and the node rows in flight.
func upperOf(mx *csr[graph.NodeID], rows *csr[PairKey]) upperRuns {
	var u upperRuns
	for i := 0; i < len(rows.keys); {
		x, _ := rows.keys[i].Nodes()
		j := i
		var metas []int32
		for ; j < len(rows.keys) && rows.keys[j]>>32 == rows.keys[i]>>32; j++ {
			for _, e := range rows.ent[rows.off[j]:rows.off[j+1]] {
				metas = append(metas, e.Meta)
			}
		}
		slices.Sort(metas)
		for _, m := range slices.Compact(metas) {
			for r := i; r < j; r++ {
				row := rows.ent[rows.off[r]:rows.off[r+1]]
				if at, ok := slices.BinarySearchFunc(row, Entry{Meta: m}, compareEntryMeta); ok {
					_, y := rows.keys[r].Nodes()
					u.add(x, y, m, uint64(row[at].Count))
				}
			}
			u.end(x, m)
		}
		i = j
	}
	mx.each(func(x graph.NodeID, row []Entry) {
		for _, e := range row {
			u.count(x, e.Meta, uint64(e.Count))
		}
	})
	return u
}

// rowsIndex is the index of node rows mx and pair rows mxy over numMeta
// metagraphs, built as the counter builds one: handed over by upperOf,
// then laid out.
func rowsIndex(numMeta int, mx csr[graph.NodeID], mxy *csr[PairKey]) *Index {
	return (&section{numMeta: numMeta, up: upperOf(&mx, mxy)}).index()
}

// pairsIndex is rowsIndex of the pair rows mxy with degreesOf's node
// counts.
func pairsIndex(numMeta int, mxy *csr[PairKey]) *Index {
	return rowsIndex(numMeta, degreesOf(mxy), mxy)
}

// rowsOf reads runs above each node back into pair rows.
func rowsOf(u *upperRuns) csr[PairKey] {
	rows := map[PairKey][]Entry{}
	for i, x := range u.nodes {
		for j := u.first[i]; j < u.first[i+1]; j++ {
			for _, p := range u.post[u.off[j]:u.off[j+1]] {
				k := MakePairKey(x, p.node)
				rows[k] = append(rows[k], Entry{u.meta[j], p.count})
			}
		}
	}
	return tableOf(rows)
}

// countsOf reads the node counts in flight back into node rows.
func countsOf(u *upperRuns) csr[graph.NodeID] {
	rows := map[graph.NodeID][]Entry{}
	for _, c := range u.mx {
		rows[c.node] = append(rows[c.node], c.Entry)
	}
	return tableOf(rows)
}

// laysOutRef holds the runs of ix to refRuns of the node and pair rows
// they hold, and the node rows to want.
func laysOutRef(t testing.TB, label string, ix *Index, want csr[graph.NodeID]) {
	t.Helper()
	rows, mx := ix.pairTable(), ix.nodeTable()
	if !slices.Equal(mx.keys, want.keys) || !slices.Equal(mx.off, want.off) || !slices.Equal(mx.ent, want.ent) {
		t.Fatalf("%s: the run headers hold node rows %v %v %v; want %v %v %v", label, mx.keys, mx.off, mx.ent, want.keys, want.off, want.ent)
	}
	if ref := refRuns(&mx, &rows); !sameRuns(&ix.flat, &ref) {
		t.Fatalf("%s: the runs %+v are not the reference layout of their rows, %+v", label, ix.flat, ref)
	}
}

// renumbered is the node table mx with every metagraph m renumbered
// meta(m), or dropped where that is negative, each row sorted again and a
// row left empty dropped.
func renumbered(mx csr[graph.NodeID], meta func(int32) int32) csr[graph.NodeID] {
	rows := map[graph.NodeID][]Entry{}
	mx.each(func(x graph.NodeID, row []Entry) {
		for _, e := range row {
			if m := meta(e.Meta); m >= 0 {
				rows[x] = append(rows[x], Entry{m, e.Count})
			}
		}
	})
	return tableOf(rows)
}

// TestEveryConstructorLaysOutTheReference holds the runs of every
// constructor to refRuns of the rows they hold, and their headers to the
// node rows the map counter (refBuild) gives at the same metagraphs: the
// counter's parts, Merge, AddParts, Project, Restrict, Select, RootedParts,
// Count, its two-edge merge, Decode, and WithPatch of one re-match's gains
// and of MergeGains over all of them, against a count of the grown graph.
// Select must also hold, at each key it names, the row ix holds.
func TestEveryConstructorLaysOutTheReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ms := patchMetagraphs()
	all := []int{0, 1, 2}
	only := func(keep ...int32) func(int32) int32 {
		return func(m int32) int32 {
			if i := slices.Index(keep, m); i >= 0 {
				return int32(i)
			}
			return -1
		}
	}
	drop1 := func(m int32) int32 {
		if m == 1 {
			return -1
		}
		return m
	}
	for trial := 0; trial < 12; trial++ {
		g, d := randTyped(rng)
		ng, _, err := g.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		parts, _ := MatchParts(ms, func() match.Matcher { return match.NewSymISO(g) }, 1)
		ix := Merge(parts...)
		keys := Keys{}
		for v := range graph.NodeID(g.NumNodes()) {
			keys.Nodes = append(keys.Nodes, v)
		}
		for i, k := range ix.pairTable().keys {
			if i%3 != 1 {
				keys.Pairs = append(keys.Pairs, k)
			}
		}
		rooted := RootedParts(g, ms, keys)
		two, err := twoEdgePart(g, ms[0])
		if err != nil {
			t.Fatal(err)
		}
		read, err := ReadSection(bytes.NewReader(writeBytes(t, ix)), g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		var gains []*Patch
		for _, m := range ms {
			gains = append(gains, RematchDelta(ng, m, nil, nil))
		}
		selected := ix.Select(keys)
		want, grown := refBuild(ms, all, g).nodeTable(), refBuild(ms, all, ng).nodeTable()
		for label, c := range map[string]struct {
			ix   *Index
			want csr[graph.NodeID]
		}{
			"part":        {parts[2], renumbered(want, only(2))},
			"Merge":       {ix, want},
			"AddParts":    {Empty(3).AddParts([]int{2, 0}, []*Index{parts[2], parts[0]}), renumbered(want, drop1)},
			"Project":     {ix.Project([]int{2, 0}), renumbered(want, only(2, 0))},
			"Restrict":    {ix.Restrict([]bool{true, false, true}), renumbered(want, drop1)},
			"Select":      {selected, want},
			"RootedParts": {Merge(rooted...), want},
			"Count":       {Merge(Count(g, ms)...), want},
			"twoEdgePart": {two, renumbered(want, only(0))},
			"Decode":      {read, want},
			"WithPatch":   {mustPatch(t, parts[2], gains[2]), renumbered(grown, only(2))},
			"MergeGains":  {mustPatch(t, ix, MergeGains(3, all, gains)), grown},
		} {
			laysOutRef(t, label, c.ix, c.want)
		}
		wantRows := map[PairKey][]Entry{}
		for _, k := range keys.Pairs {
			wantRows[k] = ix.PairVec(k.Nodes()).ent
		}
		holdsRows(t, "Select", selected, tableOf(wantRows))
	}
}

// FuzzRunsAbove builds pair rows from data — at most 16 nodes, 1–3
// metagraphs, counts of 1, small counts and counts near 2^32−1 — and node
// rows of each node's largest pair count, hands them over as the runs above
// each node with the node counts in flight, as the counter, Select and a
// Patch do, and holds layout to refRuns of the rows, headers and all. The
// same rows with one node count left out, given twice or given as 0 are
// refused. A second set of rows, split by metagraph into single-metagraph
// gains and lifted by MergeGains, is added by WithPatch: the result lays
// out as refRuns of the summed rows, or, where a sum of a pair or a header
// passes 2^32−1, is refused with the receiver's bytes unchanged.
func FuzzRunsAbove(f *testing.F) {
	f.Add([]byte{2, 15, 0, 1, 0, 0, 0, 2, 2, 1, 1, 2, 4, 2, 3, 4, 1, 5, 0, 1, 3, 4, 9, 15, 0, 0})
	f.Add([]byte{1, 7, 0, 1, 0, 2, 0, 1, 1, 6, 2, 5, 0, 0, 5, 6, 1, 1})
	f.Add([]byte{0, 3, 1, 2, 1, 0, 0, 3, 1, 0})
	f.Add([]byte{0, 3, 0, 1, 0, 0, 1, 2, 0, 0})                 // node 1: a partner below it, then one above
	f.Add([]byte{0, 3, 0, 1, 0, 2, 1, 0, 1, 254, 2, 3, 0, 1})   // m_01 = 2^32-1, and 2^32-64 more
	f.Add([]byte{0, 4, 0, 1, 0, 2, 2, 3, 0, 254, 0, 2, 1, 254}) // m_0 = 2^32-1 gains 2^32-64 through another partner
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		numMeta, n := 1+int(data[0])%3, 1+int(data[1])%16
		base, gain := map[PairKey][]Entry{}, map[PairKey][]Entry{}
		for data = data[2:]; len(data) >= 4; data = data[4:] {
			x, y := graph.NodeID(int(data[0])%n), graph.NodeID(int(data[1])%n)
			if x == y {
				continue
			}
			m, c := int32(data[2]>>1)%int32(numMeta), uint32(1)
			switch s := uint32(data[3] >> 2); data[3] % 3 {
			case 1:
				c = 2 + s
			case 2:
				c = math.MaxUint32 - s
			}
			rows, k := base, MakePairKey(x, y)
			if data[2]&1 == 1 {
				rows = gain
			}
			rows[k] = append(slices.DeleteFunc(rows[k], func(e Entry) bool { return e.Meta == m }), Entry{m, c})
		}
		rows, gains := tableOf(base), tableOf(gain)
		mx, gainMx := maxOf(&rows), maxOf(&gains)
		up := upperOf(&mx, &rows)
		got, err := up.layout(numMeta)
		if want := refRuns(&mx, &rows); err != nil || !sameRuns(&got, &want) {
			t.Fatalf("layout of %v %v %v: %+v, %v; the reference %+v", rows.keys, rows.off, rows.ent, got, err, want)
		}
		if len(up.mx) > 0 {
			for what, mx := range map[string][]nodeCount{
				"no count":   up.mx[1:],
				"two counts": append(slices.Clone(up.mx), up.mx[0]),
				"count of 0": append([]nodeCount{{up.mx[0].node, Entry{up.mx[0].Meta, 0}}}, up.mx[1:]...),
			} {
				bad := up
				bad.mx = mx
				if _, err := bad.layout(numMeta); err == nil || !strings.Contains(err.Error(), what) {
					t.Fatalf("layout of counts with %s: %v", what, err)
				}
			}
		}
		ix := rowsIndex(numMeta, mx, &rows)
		patches, slots := []*Patch{}, []int{}
		for m := range int32(numMeta) {
			one, oneMx := map[PairKey][]Entry{}, map[graph.NodeID][]Entry{}
			gains.each(func(k PairKey, row []Entry) {
				if i, ok := slices.BinarySearchFunc(row, Entry{Meta: m}, compareEntryMeta); ok {
					one[k] = []Entry{{0, row[i].Count}}
				}
			})
			gainMx.each(func(x graph.NodeID, row []Entry) {
				if i, ok := slices.BinarySearchFunc(row, Entry{Meta: m}, compareEntryMeta); ok {
					oneMx[x] = []Entry{{0, row[i].Count}}
				}
			})
			patches, slots = append(patches, handPatch(1, oneMx, one)), append(slots, int(m))
		}
		p := MergeGains(numMeta, slots, patches)
		if got, gotMx := rowsOf(&p.up), countsOf(&p.up); !slices.Equal(got.keys, gains.keys) || !slices.Equal(got.ent, gains.ent) ||
			!slices.Equal(gotMx.keys, gainMx.keys) || !slices.Equal(gotMx.ent, gainMx.ent) {
			t.Fatalf("MergeGains lifts the gains %v %v and %v %v; want %v %v and %v %v", got.keys, got.ent, gotMx.keys, gotMx.ent, gains.keys, gains.ent, gainMx.keys, gainMx.ent)
		}
		was := writeBytes(t, ix)
		sum, pairsFit := addRows(rows, gains)
		sumMx, nodesFit := addRows(mx, gainMx)
		patched, err := ix.WithPatch(p)
		if !pairsFit || !nodesFit {
			want := refRuns(&mx, &rows)
			if patched != nil || err == nil || !strings.Contains(err.Error(), "overflow") ||
				!bytes.Equal(writeBytes(t, ix), was) || !sameRuns(&ix.flat, &want) {
				t.Fatalf("gains past 2^32-1: WithPatch returned %v, %v; the receiver unchanged: %v", patched, err, bytes.Equal(writeBytes(t, ix), was))
			}
			return
		}
		if err != nil {
			t.Fatalf("gains that fit: %v", err)
		}
		if want := refRuns(&sumMx, &sum); !sameRuns(&patched.flat, &want) {
			t.Fatalf("patched runs %+v; the reference of the summed rows %+v", patched.flat, want)
		}
	})
}
