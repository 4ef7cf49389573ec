package index

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// Serialization of the metagraph-vector index. Matching dominates the
// offline phase (Table III), so persisting its output lets deployments
// mine+match once and train/query many times.
//
// The wire format mirrors the in-memory CSR layout: sorted keys, row
// offsets and one flat entry arena per table. Index internals are already
// deterministic, so Write is byte-stable without any extra sorting.

// serIndex is the gob-friendly mirror of Index.
type serIndex struct {
	Version int
	NumMeta int
	MxKeys  []graph.NodeID
	MxOff   []int32
	MxEnt   []Entry
	MxyKeys []PairKey
	MxyOff  []int32
	MxyEnt  []Entry
}

const serVersion = 2

// Write serializes ix. A patched index is compacted first, so the wire
// format never carries an overlay and an incrementally updated index
// serializes byte-identically to a from-scratch build of the same rows.
func Write(w io.Writer, ix *Index) error {
	ix = ix.Compact()
	s := serIndex{
		Version: serVersion,
		NumMeta: ix.numMeta,
		MxKeys:  ix.mx.keys,
		MxOff:   ix.mx.off,
		MxEnt:   ix.mx.ent,
		MxyKeys: ix.mxy.keys,
		MxyOff:  ix.mxy.off,
		MxyEnt:  ix.mxy.ent,
	}
	return gob.NewEncoder(w).Encode(&s)
}

// Read deserializes an index written by Write for a graph of numNodes
// nodes. The bytes are untrusted: everything the derived adjacency later
// indexes by node id or by row position is validated here, so a corrupt
// file is refused with an error and can neither panic a reader nor size an
// allocation by an id it made up. The adjacency itself is not built (see
// BuildAdjacency).
func Read(r io.Reader, numNodes int) (*Index, error) {
	var s serIndex
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	if s.Version != serVersion {
		return nil, fmt.Errorf("index: unsupported version %d", s.Version)
	}
	if s.NumMeta < 0 {
		return nil, fmt.Errorf("index: negative metagraph count")
	}
	if err := checkCSR(s.MxKeys, s.MxOff, s.MxEnt, s.NumMeta); err != nil {
		return nil, fmt.Errorf("index: node table: %w", err)
	}
	if err := checkCSR(s.MxyKeys, s.MxyOff, s.MxyEnt, s.NumMeta); err != nil {
		return nil, fmt.Errorf("index: pair table: %w", err)
	}
	// Keys ascend strictly (checkCSR), so the ends bound the node keys.
	if n := len(s.MxKeys); n > 0 && (s.MxKeys[0] < 0 || int(s.MxKeys[n-1]) >= numNodes) {
		return nil, fmt.Errorf("index: node table: keys outside [0, %d)", numNodes)
	}
	if len(s.MxyKeys) > math.MaxInt32/2 {
		return nil, fmt.Errorf("index: pair table: %d pairs overflow the adjacency's slot positions", len(s.MxyKeys))
	}
	for _, k := range s.MxyKeys {
		// MakePairKey puts the smaller endpoint first; equal endpoints
		// are no pair at all.
		if x, y := k.Nodes(); x < 0 || x >= y || int(y) >= numNodes {
			return nil, fmt.Errorf("index: pair table: key (%d,%d) is not a pair of nodes in [0, %d)", x, y, numNodes)
		}
	}
	return &Index{
		numMeta: s.NumMeta,
		mx:      csr[graph.NodeID]{keys: s.MxKeys, off: s.MxOff, ent: s.MxEnt},
		mxy:     csr[PairKey]{keys: s.MxyKeys, off: s.MxyOff, ent: s.MxyEnt},
		adj:     &lazyAdjacency{},
	}, nil
}

// Marshal serializes ix to a byte slice. Engine snapshots embed many
// indices (one per matched metagraph plus one per trained class) inside a
// single outer stream, and a length-delimited []byte per index keeps each
// one independently decodable.
func Marshal(ix *Index) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, ix); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a byte slice produced by Marshal, running the same
// structural validation as Read.
func Unmarshal(b []byte, numNodes int) (*Index, error) {
	return Read(bytes.NewReader(b), numNodes)
}

// checkCSR validates the invariants of one serialized table that reads
// rely on: strictly ascending keys (binary-searched lookups silently
// return wrong rows otherwise) and in-range entry Metas (Dot and Project
// index dense numMeta-length arrays by Meta, so an out-of-range value
// would panic far from the load site).
func checkCSR[K cmp.Ordered](keys []K, off []int32, ent []Entry, numMeta int) error {
	if len(keys) == 0 {
		if len(off) > 1 || len(ent) != 0 {
			return fmt.Errorf("corrupt empty table")
		}
		return nil
	}
	if len(off) != len(keys)+1 || off[0] != 0 || int(off[len(keys)]) != len(ent) {
		return fmt.Errorf("corrupt key/offset tables")
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("offsets not monotone")
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("keys not strictly ascending")
		}
	}
	for _, e := range ent {
		if e.Meta < 0 || int(e.Meta) >= numMeta {
			return fmt.Errorf("entry metagraph %d out of range [0, %d)", e.Meta, numMeta)
		}
	}
	for i := 0; i < len(keys); i++ {
		row := ent[off[i]:off[i+1]]
		for j := 1; j < len(row); j++ {
			if row[j].Meta <= row[j-1].Meta {
				return fmt.Errorf("row entries not strictly ascending by metagraph")
			}
		}
	}
	return nil
}
