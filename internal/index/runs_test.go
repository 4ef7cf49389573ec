package index

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
)

// refRuns is the reference layout of pair rows, in the plainest terms:
// every coordinate m_xy[m] = c becomes the posting {y, c} of x's run of m
// and {x, c} of y's, the postings are sorted by node, metagraph and
// partner, and a run ends wherever the node or the metagraph changes.
func refRuns(rows *csr[PairKey]) adjRuns {
	type entry struct {
		node graph.NodeID
		meta int32
		p    posting
	}
	var es []entry
	rows.each(func(k PairKey, row []Entry) {
		x, y := k.Nodes()
		for _, e := range row {
			es = append(es, entry{x, e.Meta, posting{y, e.Count}}, entry{y, e.Meta, posting{x, e.Count}})
		}
	})
	if len(es) == 0 {
		return adjRuns{}
	}
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.meta, b.meta), cmp.Compare(a.p.node, b.p.node))
	})
	n := int(es[len(es)-1].node) + 1
	rs := adjRuns{first: make([]int32, n+1)}
	for i, e := range es {
		if i == 0 || e.node != es[i-1].node || e.meta != es[i-1].meta {
			rs.meta, rs.off = append(rs.meta, e.meta), append(rs.off, int32(i))
		}
		rs.post = append(rs.post, e.p)
		rs.first[e.node+1] = int32(len(rs.meta))
	}
	rs.off = append(rs.off, int32(len(es)))
	for v := 1; v <= n; v++ {
		rs.first[v] = max(rs.first[v], rs.first[v-1])
	}
	return rs
}

// upperOf hands pair rows over as the runs above each node, the form the
// counter, Select and a Patch use: per smaller node x, ascending, its run
// of each metagraph, ascending, of the partners above x.
func upperOf(rows *csr[PairKey]) upperRuns {
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
	return u
}

// rowsIndex is the index of node rows mx and pair rows mxy over numMeta
// metagraphs, built as the counter builds one: the pair rows handed over
// as the runs above each node, then laid out.
func rowsIndex(numMeta int, mx csr[graph.NodeID], mxy *csr[PairKey]) *Index {
	return (&section{numMeta: numMeta, mx: mx, up: upperOf(mxy)}).index()
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

// laysOutRef holds the runs of ix to refRuns of the pair rows they hold.
func laysOutRef(t testing.TB, label string, ix *Index) {
	t.Helper()
	rows := ix.pairTable()
	if want := refRuns(&rows); !sameRuns(&ix.flat, &want) {
		t.Fatalf("%s: the runs %+v are not the reference layout of their pair rows, %+v", label, ix.flat, want)
	}
}

// TestEveryConstructorLaysOutTheReference holds the runs of every
// constructor to refRuns of the pair rows they hold: the counter's parts,
// Merge, AddParts, Project, Restrict, Select, RootedParts, TwoEdgePart,
// Read, and WithPatch of one re-match's gains and of MergeGains over all
// of them. Select must also hold, at each key it names, the row ix holds.
func TestEveryConstructorLaysOutTheReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ms := patchMetagraphs()
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
		rooted := RootedParts(ms, func() *match.SymISO { return match.NewSymISO(g) }, 1, keys)
		two, err := TwoEdgePart(g, ms[0])
		if err != nil {
			t.Fatal(err)
		}
		read, err := Read(bytes.NewReader(writeBytes(t, ix)), g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		var gains []*Patch
		for _, m := range ms {
			gains = append(gains, RematchDelta(ng, m, nil, nil))
		}
		selected := ix.Select(keys)
		for label, got := range map[string]*Index{
			"part":        parts[2],
			"Merge":       ix,
			"AddParts":    NewBuilder(3).Build().AddParts([]int{2, 0}, []*Index{parts[2], parts[0]}),
			"Project":     ix.Project([]int{2, 0}),
			"Restrict":    ix.Restrict([]bool{true, false, true}),
			"Select":      selected,
			"RootedParts": Merge(rooted...),
			"TwoEdgePart": two,
			"Read":        read,
			"WithPatch":   mustPatch(t, parts[2], gains[2]),
			"MergeGains":  mustPatch(t, ix, MergeGains(3, []int{0, 1, 2}, gains)),
		} {
			laysOutRef(t, label, got)
		}
		want := map[PairKey][]Entry{}
		for _, k := range keys.Pairs {
			want[k] = ix.PairVec(k.Nodes()).ent
		}
		holdsRows(t, "Select", selected, tableOf(want))
	}
}

// FuzzRunsAbove builds pair rows from data — at most 16 nodes, 1–3
// metagraphs, counts of 1, small counts and counts near 2^32−1 — hands
// them over as the runs above each node, as the counter, Select and a
// Patch do, and holds layout to refRuns of the rows. A second set of rows,
// split by metagraph into single-metagraph gains and lifted by MergeGains,
// is added by WithPatch: the result lays out as refRuns of the summed
// rows, or, where a sum passes 2^32−1, is refused with the receiver's
// bytes unchanged.
func FuzzRunsAbove(f *testing.F) {
	f.Add([]byte{2, 15, 0, 1, 0, 0, 0, 2, 2, 1, 1, 2, 4, 2, 3, 4, 1, 5, 0, 1, 3, 4, 9, 15, 0, 0})
	f.Add([]byte{1, 7, 0, 1, 0, 2, 0, 1, 1, 6, 2, 5, 0, 0, 5, 6, 1, 1})
	f.Add([]byte{0, 3, 1, 2, 1, 0, 0, 3, 1, 0})
	f.Add([]byte{0, 3, 0, 1, 0, 0, 1, 2, 0, 0})               // node 1: a partner below it, then one above
	f.Add([]byte{0, 3, 0, 1, 0, 2, 1, 0, 1, 254, 2, 3, 0, 1}) // m_01 = 2^32-1, and 2^32-64 more
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
		up := upperOf(&rows)
		if got, want := up.layout(numMeta), refRuns(&rows); !sameRuns(&got, &want) {
			t.Fatalf("layout of %v %v %v: %+v; the reference %+v", rows.keys, rows.off, rows.ent, got, want)
		}
		ix := rowsIndex(numMeta, csr[graph.NodeID]{}, &rows)
		patches, slots := []*Patch{}, []int{}
		for m := range int32(numMeta) {
			one := map[PairKey][]Entry{}
			gains.each(func(k PairKey, row []Entry) {
				if i, ok := slices.BinarySearchFunc(row, Entry{Meta: m}, compareEntryMeta); ok {
					one[k] = []Entry{{0, row[i].Count}}
				}
			})
			patches, slots = append(patches, handPatch(1, nil, one)), append(slots, int(m))
		}
		p := MergeGains(numMeta, slots, patches)
		if got := rowsOf(&p.up); !slices.Equal(got.keys, gains.keys) || !slices.Equal(got.ent, gains.ent) {
			t.Fatalf("MergeGains lifts the gains %v %v; want %v %v", got.keys, got.ent, gains.keys, gains.ent)
		}
		was := writeBytes(t, ix)
		sum, fits := addRows(rows, gains)
		patched, err := ix.WithPatch(p)
		if !fits {
			want := refRuns(&rows)
			if patched != nil || err == nil || !strings.Contains(err.Error(), "overflow") ||
				!bytes.Equal(writeBytes(t, ix), was) || !sameRuns(&ix.flat, &want) {
				t.Fatalf("gains past 2^32-1: WithPatch returned %v, %v; the receiver unchanged: %v", patched, err, bytes.Equal(writeBytes(t, ix), was))
			}
			return
		}
		if err != nil {
			t.Fatalf("gains that fit: %v", err)
		}
		if want := refRuns(&sum); !sameRuns(&patched.flat, &want) {
			t.Fatalf("patched runs %+v; the reference of the summed rows %+v", patched.flat, want)
		}
	})
}
