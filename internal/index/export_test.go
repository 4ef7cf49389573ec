package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"

	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// sectionMagic frames a lone section in the tests that take an index to
// bytes and back. An index travels only inside a snapshot; this is the
// magic its own file had, so the wire goldens still hash the bytes they
// were recorded from.
const sectionMagic = "SPXI\x09"

// WriteSection writes ix's section as a flat stream of its own: magic,
// section, checksum — the two-edge metapaths ix serves from its graph laid
// out as runs first (materialized), so that every row is written. Encode
// is deterministic, so equal bytes mean equal rows.
func WriteSection(w io.Writer, ix *Index) error {
	fw := flat.NewWriter(w, sectionMagic)
	Encode(fw, materialized(ix))
	return fw.Close()
}

// materialized is ix with the rows of every two-edge metapath it serves
// from its graph laid out as the runs MatchParts lays them out in: each
// node's partners above it (pathPartners, one per shared middle node) and
// its count (pathNode), read through the index's own readers.
func materialized(ix *Index) *Index {
	if len(ix.paths) == 0 {
		return ix
	}
	slots, parts := make([]int, len(ix.paths)), make([]*Index, len(ix.paths))
	var buf []graph.NodeID
	for i, p := range ix.paths {
		s := section{numMeta: 1}
		for q := range graph.NodeID(ix.g.NumNodes()) {
			buf = ix.pathPartners(buf[:0], q, p)
			slices.Sort(buf)
			for j := 0; j < len(buf); {
				k := j + 1
				for k < len(buf) && buf[k] == buf[j] {
					k++
				}
				if buf[j] > q {
					s.up.add(q, buf[j], 0, uint64(k-j))
				}
				j = k
			}
			s.up.end(q, 0)
			if c := ix.pathNode(q, p); c > 0 {
				s.up.count(q, 0, c)
			}
		}
		slots[i], parts[i] = int(p.meta), s.index()
	}
	return (&Index{numMeta: ix.numMeta, flat: ix.flat}).AddParts(slots, parts)
}

// ReadSection reads a stream WriteSection wrote for a graph of numNodes
// nodes, with DecodeRuns' checks and the stream's checksum.
func ReadSection(r io.Reader, numNodes int) (*Index, error) {
	fr, err := flat.NewReader(r, sectionMagic)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	ix, err := DecodeRuns(fr, numNodes)
	if err != nil {
		return nil, err
	}
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return ix, nil
}

// DecodeRuns reads one section for a graph of numNodes nodes, every row in
// it, with the checks Decode makes of the section itself.
func DecodeRuns(r *flat.Reader, numNodes int) (*Index, error) {
	sec, err := decodeSection(r, numNodes)
	if err != nil {
		return nil, err
	}
	return sec.decoded()
}

// SerialIndex is the serial reference build of ms: every metagraph
// matched by matcher on one worker, the parts merged.
func SerialIndex(ms []*metagraph.Metagraph, matcher match.Matcher) *Index {
	parts, _ := MatchParts(ms, func() match.Matcher { return matcher }, 1)
	return Merge(parts...)
}

// ContentDigest is the SHA-256 of what ix holds, in no wire format: numMeta,
// then per table (nodes, then pairs) its key count, every key, and per row
// its length and each entry's Meta and Count, all fixed-width little-endian.
// The node rows are the run headers, the pair rows those the runs hold,
// walked out in key order. A codec or layout change leaves it alone; a
// change to any row does not.
func ContentDigest(ix *Index) string {
	h := sha256.New()
	var b []byte
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	put(uint64(ix.numMeta))
	table := func(keys []uint64, off []int32, ent []Entry) {
		put(uint64(len(keys)))
		for _, k := range keys {
			put(k)
		}
		for i := range keys {
			put(uint64(off[i+1] - off[i]))
			for _, e := range ent[off[i]:off[i+1]] {
				b = binary.LittleEndian.AppendUint32(b, uint32(e.Meta))
				b = binary.LittleEndian.AppendUint32(b, e.Count)
			}
			if len(b) >= 1<<16 {
				h.Write(b)
				b = b[:0]
			}
		}
	}
	nodes := ix.nodeTable()
	keys := make([]uint64, len(nodes.keys))
	for i, k := range nodes.keys {
		keys[i] = uint64(k)
	}
	table(keys, nodes.off, nodes.ent)
	pairs := ix.pairTable()
	keys = keys[:0]
	for _, k := range pairs.keys {
		keys = append(keys, uint64(k))
	}
	table(keys, pairs.off, pairs.ent)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// nodeTable is the table of the node rows the run headers hold: a row per
// node with a run, its headers in order.
func (ix *Index) nodeTable() csr[graph.NodeID] {
	var c csr[graph.NodeID]
	for v := range graph.NodeID(ix.NodeSpan()) {
		if row := ix.NodeVec(v).ent; len(row) > 0 {
			c.appendRow(v, row)
		}
	}
	return c
}

// pairTable is the table of the pair rows pairRows walks out.
func (ix *Index) pairTable() csr[PairKey] {
	var c csr[PairKey]
	ix.pairRows(func(k PairKey, row []Entry) { c.appendRow(k, row) })
	return c
}

// pairRows walks the runs back out into pair rows, in key order, those of
// the two-edge metapaths ix serves from its graph too (materialized). The
// rows of q are the postings above q in its runs, merged by partner; each
// comes out ascending by metagraph, as q's runs are. The row passed to
// yield is reused by the next call.
func (ix *Index) pairRows(yield func(k PairKey, row []Entry)) {
	ix = materialized(ix)
	type head struct {
		meta int32
		post []posting // never empty
	}
	var heads []head
	var row []Entry
	for q := range graph.NodeID(ix.NodeSpan()) {
		rs := &ix.flat
		lo, hi := rs.runs(q)
		for r := lo; r < hi; r++ {
			post := rs.postings(r)
			if i, _ := slices.BinarySearchFunc(post, q, comparePosting); i < len(post) {
				heads = append(heads, head{rs.head[r].Meta, post[i:]})
			}
		}
		for len(heads) > 0 {
			v := heads[0].post[0].node // the smallest partner left
			for _, h := range heads[1:] {
				v = min(v, h.post[0].node)
			}
			row = row[:0]
			spent := false
			for i := range heads {
				if h := &heads[i]; h.post[0].node == v {
					row = append(row, Entry{h.meta, h.post[0].count})
					h.post = h.post[1:]
					spent = spent || len(h.post) == 0
				}
			}
			if spent {
				heads = slices.DeleteFunc(heads, func(h head) bool { return len(h.post) == 0 })
			}
			yield(MakePairKey(q, v), row)
		}
	}
}

// Divisors returns, per metagraph of ix, the divisor Encode writes for it:
// each node's count is its run's sum over it, and 0 means the counts are
// written; -1 where ix holds no run of it.
func Divisors(ix *Index) []int64 { return divisors(&ix.flat, ix.numMeta) }

// RaceEnabled tells the external tests that the race detector is on: it
// slows matching about tenfold, and the MaxNodes-5 shapes skip themselves
// under it.
const RaceEnabled = raceEnabled
