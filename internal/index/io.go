package index

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/flat"
	"repro/internal/graph"
)

// Serialization of the metagraph-vector index. Matching dominates the
// offline phase (Table III), so persisting its output lets deployments
// mine+match once and train/query many times.
//
// An index travels as one section of a flat stream (internal/flat), written
// straight from the CSR arenas and read straight back into them:
//
//	numMeta
//	node table, pair table, each:
//	  nKeys nEntries
//	  nKeys   × key delta  (keys ascend strictly, so every delta — the
//	                        first one is key+1 — is at least 1)
//	  nKeys   × row length
//	  nEntries × (Meta, Count)
//
// Everything is an unsigned varint. A Count is the raw instance count — the
// index stores no transformed value (see Index.Transform) — so it is a
// small integer: one byte below 128, two below 16384. Index internals are
// already deterministic, so the bytes are stable without any extra sorting.
// Engine snapshots embed one section per index; Write/Read frame a single
// section as a file of its own.

const fileMagic = "SPXI\x04"

// Write serializes ix's counts. A patched index is compacted first, so the
// wire format never carries an overlay and an incrementally updated index
// serializes byte-identically to a from-scratch build of the same rows. The
// transform is not written: the reader applies its own.
func Write(w io.Writer, ix *Index) error {
	fw := flat.NewWriter(w, fileMagic)
	Encode(fw, ix)
	return fw.Close()
}

// Read deserializes an index written by Write for a graph of numNodes
// nodes, with the guarantees of Decode plus the stream's checksum.
func Read(r io.Reader, numNodes int) (*Index, error) {
	fr, err := flat.NewReader(r, fileMagic)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	ix, err := Decode(fr, numNodes)
	if err != nil {
		return nil, err
	}
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return ix, nil
}

// Encode appends ix (compacted, like Write) to w as one section.
func Encode(w *flat.Writer, ix *Index) {
	ix = ix.Compact()
	w.Uvarint(uint64(ix.numMeta))
	encodeTable(w, &ix.mx)
	encodeTable(w, &ix.mxy)
}

func encodeTable[K ~int32 | ~uint64](w *flat.Writer, c *csr[K]) {
	w.Uvarint(uint64(len(c.keys)))
	w.Uvarint(uint64(len(c.ent)))
	prev := uint64(0)
	for _, k := range c.keys {
		next := uint64(k) + 1
		w.Uvarint(next - prev)
		prev = next
	}
	for i := range c.keys {
		w.Uvarint(uint64(c.off[i+1] - c.off[i]))
	}
	for _, e := range c.ent {
		w.Uvarint(uint64(e.Meta))
		w.Uvarint(uint64(e.Count))
	}
}

// Decode reads one section for a graph of numNodes nodes; the index reads raw
// counts (see Transform). The bytes are untrusted: everything reads rely on
// (strictly ascending keys and row Metas, Metas within numMeta, counts in
// [1, 2^32-1]) and everything the derived adjacency later
// indexes by node id or by row position (node keys and pair endpoints
// within the graph, smaller endpoint first) is checked as it is decoded,
// so a corrupt stream is refused with an error and can neither panic a
// reader nor size an allocation by a number it made up (see flat.Grow).
// The adjacency itself is not built (see BuildAdjacency).
func Decode(r *flat.Reader, numNodes int) (*Index, error) {
	numMeta := r.Uvarint()
	if numMeta > math.MaxInt32 {
		return nil, fmt.Errorf("index: %w", corrupt(r, "metagraph count", "overflows int32"))
	}
	mx, err := decodeTable[graph.NodeID](r, numMeta, uint64(numNodes))
	if err != nil {
		return nil, fmt.Errorf("index: node table: %w", err)
	}
	// Pair keys carry the smaller endpoint in the high word, so the
	// largest legal one bounds them all; each is then checked by itself.
	var limit uint64
	if numNodes >= 2 {
		limit = uint64(MakePairKey(graph.NodeID(numNodes-2), graph.NodeID(numNodes-1))) + 1
	}
	mxy, err := decodeTable[PairKey](r, numMeta, limit)
	if err != nil {
		return nil, fmt.Errorf("index: pair table: %w", err)
	}
	if len(mxy.keys) > math.MaxInt32/2 {
		return nil, fmt.Errorf("index: pair table: %d pairs overflow the adjacency's slot positions", len(mxy.keys))
	}
	for _, k := range mxy.keys {
		if x, y := k.Nodes(); x >= y || int(y) >= numNodes {
			return nil, fmt.Errorf("index: pair table: key (%d,%d) is not a pair of nodes in [0, %d)", x, y, numNodes)
		}
	}
	return &Index{numMeta: int(numMeta), mx: mx, mxy: mxy, adj: &lazyAdjacency{}}, nil
}

// corrupt names an invariant the stream broke — unless the stream itself
// already failed, in which case the zero it returned is not the cause.
func corrupt(r *flat.Reader, what, how string) error {
	if err := r.Err(); err != nil {
		return err
	}
	return errors.New(what + " " + how)
}

// decodeTable reads one table whose keys must lie in [0, limit).
func decodeTable[K ~int32 | ~uint64](r *flat.Reader, numMeta, limit uint64) (c csr[K], err error) {
	nKeys, nEnt := r.Uvarint(), r.Uvarint()
	if nKeys > math.MaxInt32 || nEnt > math.MaxInt32 {
		return c, corrupt(r, "table size", "overflows the int32 row offsets")
	}
	if nKeys == 0 {
		if nEnt != 0 {
			return c, corrupt(r, "empty table", "has entries")
		}
		return c, r.Err()
	}
	n := int(nKeys)
	next := uint64(0) // key+1 of the previous key
	for i := 0; i < n; i++ {
		if i == cap(c.keys) {
			if c.keys, err = flat.Grow(r, c.keys, n); err != nil {
				return c, err
			}
		}
		d := r.Uvarint()
		if d == 0 || d > limit-next {
			return c, corrupt(r, "keys", fmt.Sprintf("not strictly ascending within [0, %d)", limit))
		}
		next += d
		c.keys = append(c.keys, K(next-1))
	}
	total := uint64(0)
	for i := 0; i <= n; i++ { // off[0] = 0, then the running total after each row
		if i == cap(c.off) {
			if c.off, err = flat.Grow(r, c.off, n+1); err != nil {
				return c, err
			}
		}
		if i > 0 {
			l := r.Uvarint()
			if l > nEnt-total {
				return c, corrupt(r, "row lengths", "exceed the entry count")
			}
			total += l
		}
		c.off = append(c.off, int32(total))
	}
	if total != nEnt {
		return c, corrupt(r, "row lengths", "fall short of the entry count")
	}
	for i := 0; i < n; i++ {
		prev := int64(-1)
		for j := c.off[i]; j < c.off[i+1]; j++ {
			if int(j) == cap(c.ent) {
				if c.ent, err = flat.Grow(r, c.ent, int(nEnt)); err != nil {
					return c, err
				}
			}
			m := r.Uvarint()
			if m >= numMeta || int64(m) <= prev {
				return c, corrupt(r, "row entries", fmt.Sprintf("not strictly ascending by metagraph within [0, %d)", numMeta))
			}
			prev = int64(m)
			cnt := r.Uvarint()
			if cnt == 0 || cnt > math.MaxUint32 {
				return c, corrupt(r, "row entries", "hold a count of 0 or above 2^32-1")
			}
			c.ent = append(c.ent, Entry{Meta: int32(m), Count: uint32(cnt)})
		}
	}
	return c, r.Err()
}
