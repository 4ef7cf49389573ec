package index

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/flat"
	"repro/internal/graph"
)

// Serialization of the metagraph-vector index. Matching dominates the
// offline phase (Table III), so persisting its output lets deployments
// mine+match once and train/query many times.
//
// An index travels as one section of a flat stream (internal/flat): its
// node table as it is held, and its runs walked back out into the pair
// rows they hold (pairRows), which the reader lays out as runs again:
//
//	numMeta
//	node table, pair table, each:
//	  nKeys nEntries
//	  nKeys × row:
//	    delta<<1 | reuse   keys ascend strictly, so every delta — the first
//	                       one is key+1 — is at least 1; reuse is set when
//	                       the row's head is the previous row's, which the
//	                       first row has none of
//	    head        only when reuse is clear: len<<(b+1) | first<<1 | ones,
//	                b = bits.Len(numMeta): the row's length, its first
//	                Meta, and whether every Count in it is 1
//	    len-1 × Meta gap   each next Meta minus the one before, at least 1
//	    len × Count        only when ones is clear
//
// Everything is an unsigned varint. A Count is the raw instance count — the
// index stores no transformed value (see Index.Transform) — and most are 1,
// so a row of ones costs its head and gaps alone. Runs of rows share a
// head: at MaxNodes 3 nearly every pair row holds the one metagraph a class
// weighs, once, so such a row is its key delta alone. Every key is below
// 2^63 (a PairKey's high word is a non-negative int32), so shifting its
// delta left by one never overflows. Rows are never empty (a delta only
// adds instances, Project drops emptied rows), so a length of 0 is refused.
// Index internals are already deterministic, so the bytes are stable without
// any extra sorting. Engine snapshots embed one section per index;
// Write/Read frame a single section as a file of its own.

const fileMagic = "SPXI\x06"

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
	encodeTable(w, ix.numMeta, len(ix.mx.keys), len(ix.mx.ent), ix.mx.each)
	// Every pair coordinate is two postings, one in each endpoint's runs.
	encodeTable(w, ix.numMeta, ix.NumPairs(), len(ix.flat.post)/2, ix.pairRows)
}

// encodeTable writes a table of nKeys rows holding nEnt entries, which
// each yields in key order.
func encodeTable[K ~int32 | ~uint64](w *flat.Writer, numMeta, nKeys, nEnt int, each func(yield func(K, []Entry))) {
	w.Uvarint(uint64(nKeys))
	w.Uvarint(uint64(nEnt))
	b := uint(bits.Len(uint(numMeta)))
	prev, prevHead := uint64(0), uint64(0) // no head is 0: rows are never empty
	each(func(k K, row []Entry) {
		next := uint64(k) + 1
		ones := uint64(1)
		for _, e := range row {
			if e.Count != 1 {
				ones = 0
				break
			}
		}
		head := uint64(len(row))<<(b+1) | uint64(row[0].Meta)<<1 | ones
		if head == prevHead {
			w.Uvarint((next-prev)<<1 | 1)
		} else {
			w.Uvarint((next - prev) << 1)
			w.Uvarint(head)
		}
		prev, prevHead = next, head
		for j := 1; j < len(row); j++ {
			w.Uvarint(uint64(row[j].Meta - row[j-1].Meta))
		}
		if ones == 0 {
			for _, e := range row {
				w.Uvarint(uint64(e.Count))
			}
		}
	})
}

// Decode reads one section for a graph of numNodes nodes; the index reads raw
// counts (see Transform). The bytes are untrusted: everything reads rely on
// (strictly ascending keys and row Metas, Metas within numMeta, counts in
// [1, 2^32-1]) and everything the runs index by node id or by posting
// position (node keys and pair endpoints within the graph, smaller endpoint
// first) is checked as it is decoded, so a corrupt stream is refused with
// an error and can neither panic a reader nor size an allocation by a
// number it made up (see flat.Grow; buildRuns). The pair rows are laid out
// as runs and dropped.
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
	if len(mxy.ent) > math.MaxInt32/2 {
		return nil, fmt.Errorf("index: pair table: %d entries overflow the runs' posting positions", len(mxy.ent))
	}
	for _, k := range mxy.keys {
		if x, y := k.Nodes(); x >= y || int(y) >= numNodes {
			return nil, fmt.Errorf("index: pair table: key (%d,%d) is not a pair of nodes in [0, %d)", x, y, numNodes)
		}
	}
	return fromRows(int(numMeta), mx, &mxy), nil
}

// corrupt names an invariant the stream broke — unless the stream itself
// already failed, in which case the zero it returned is not the cause.
func corrupt(r *flat.Reader, what, how string) error {
	if err := r.Err(); err != nil {
		return err
	}
	return errors.New(what + " " + how)
}

// unorderedMetas refuses a row whose Metas do not ascend strictly within
// [0, numMeta).
func unorderedMetas(r *flat.Reader, numMeta uint64) error {
	return corrupt(r, "row entries", fmt.Sprintf("not strictly ascending by metagraph within [0, %d)", numMeta))
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
	if c.off, err = flat.Grow(r, c.off, n+1); err != nil {
		return c, err
	}
	c.off = append(c.off, 0) // then the running total after each row
	b := uint(bits.Len64(numMeta))
	mask := uint64(1)<<b - 1
	next := uint64(0) // key+1 of the previous key
	head := uint64(0) // the previous row's, until a row brings its own
	total := uint64(0)
	for i := 0; i < n; i++ {
		if len(c.keys) == cap(c.keys) {
			if c.keys, err = flat.Grow(r, c.keys, n); err != nil {
				return c, err
			}
		}
		if len(c.off) == cap(c.off) {
			if c.off, err = flat.Grow(r, c.off, n+1); err != nil {
				return c, err
			}
		}
		d := r.Uvarint()
		reuse := d&1 == 1
		if d >>= 1; d == 0 || d > limit-next {
			return c, corrupt(r, "keys", fmt.Sprintf("not strictly ascending within [0, %d)", limit))
		}
		next += d
		c.keys = append(c.keys, K(next-1))
		switch {
		case !reuse:
			head = r.Uvarint()
		case i == 0:
			return c, corrupt(r, "first row", "reuses a head, but no row comes before it")
		}
		l, m := head>>(b+1), head>>1&mask
		if l == 0 || l > numMeta || l > nEnt-total {
			return c, corrupt(r, "row length", fmt.Sprintf("not within [1, %d] or runs past the entry count", numMeta))
		}
		if m >= numMeta {
			return c, unorderedMetas(r, numMeta)
		}
		start := len(c.ent)
		for j := uint64(0); j < l; j++ {
			if j > 0 {
				g := r.Uvarint()
				if g == 0 || g >= numMeta-m {
					return c, unorderedMetas(r, numMeta)
				}
				m += g
			}
			if len(c.ent) == cap(c.ent) {
				if c.ent, err = flat.Grow(r, c.ent, int(nEnt)); err != nil {
					return c, err
				}
			}
			c.ent = append(c.ent, Entry{Meta: int32(m), Count: 1})
		}
		if head&1 == 0 {
			for j := start; j < len(c.ent); j++ {
				cnt := r.Uvarint()
				if cnt == 0 || cnt > math.MaxUint32 {
					return c, corrupt(r, "row entries", "hold a count of 0 or above 2^32-1")
				}
				c.ent[j].Count = uint32(cnt)
			}
		}
		total += l
		c.off = append(c.off, int32(total))
	}
	if total != nEnt {
		return c, corrupt(r, "row lengths", "fall short of the entry count")
	}
	return c, r.Err()
}
