package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// ContentDigest is the SHA-256 of what ix holds, in no wire format: numMeta,
// then per table (nodes, then pairs) its key count, every key, and per row
// its length and each entry's Meta and Count, all fixed-width little-endian.
// A codec change leaves it alone; a change to any row does not.
func ContentDigest(ix *Index) string {
	ix = ix.Compact()
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
	keys = keys[:0]
	for _, k := range ix.mxy.keys {
		keys = append(keys, uint64(k))
	}
	table(keys, ix.mxy.off, ix.mxy.ent)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
