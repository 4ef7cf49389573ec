package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"repro/internal/graph"
)

// ContentDigest is the SHA-256 of what ix holds, in no wire format: numMeta,
// then per table (nodes, then pairs) its key count, every key, and per row
// its length and each entry's Meta and Count, all fixed-width little-endian.
// The pair rows are those the runs hold, walked out in key order. A codec
// change leaves it alone; a change to any row does not.
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
	keys := make([]uint64, len(ix.mx.keys))
	for i, k := range ix.mx.keys {
		keys[i] = uint64(k)
	}
	table(keys, ix.mx.off, ix.mx.ent)
	pairs := ix.pairTable()
	keys = keys[:0]
	for _, k := range pairs.keys {
		keys = append(keys, uint64(k))
	}
	table(keys, pairs.off, pairs.ent)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// pairTable is the table of the pair rows pairRows walks out.
func (ix *Index) pairTable() csr[PairKey] {
	var c csr[PairKey]
	ix.pairRows(func(k PairKey, row []Entry) { c.appendRow(k, row) })
	return c
}

// pairRows walks the runs back out into pair rows, in key order. The rows
// of q are the postings above q in its runs, merged by partner; each comes
// out ascending by metagraph, as q's runs are. The row passed to yield is
// reused by the next call.
func (ix *Index) pairRows(yield func(k PairKey, row []Entry)) {
	type head struct {
		meta int32
		post []posting // never empty
	}
	var heads []head
	var row []Entry
	for q := range graph.NodeID(len(ix.spans)) {
		rs := &ix.flat
		lo, hi := rs.runs(q)
		for r := lo; r < hi; r++ {
			post := rs.postings(r)
			if i, _ := slices.BinarySearchFunc(post, q, comparePosting); i < len(post) {
				heads = append(heads, head{rs.meta[r], post[i:]})
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

// RaceEnabled tells the external tests that the race detector is on: it
// slows matching about tenfold, and the MaxNodes-5 shapes skip themselves
// under it.
const RaceEnabled = raceEnabled
