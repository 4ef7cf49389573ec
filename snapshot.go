package semprox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/metagraph"
)

// Engine snapshots. Mining and matching dominate the offline phase
// (Table III), and training adds gradient ascent on top — none of which a
// serving process should repeat on restart. Save captures everything the
// online phase needs (graph, epoch counter, options, metagraph set, which
// metagraphs are matched, the one index holding their vectors, every
// trained class's kept set and weights); LoadEngine restores an engine that
// answers Query/Proximity identically to the one that wrote the snapshot,
// and can still train new classes and apply updates because the matched set
// and epoch counter are restored with the index.
//
// A live-updated engine round-trips too: the graph text format
// materializes the copy-on-write overlay, the update overlay on the index
// compacts on the way out (index.Encode), and the epoch counter plus the
// durable log position (LSN) ride in the snapshot header — so a loaded
// engine resumes at the saved epoch with nothing pending, answering
// exactly as the saved one did, and recovery knows which WAL records the
// snapshot already covers (see ReplayWAL).
//
// The bytes are one flat stream (internal/flat; layout in DESIGN.md
// "Snapshot format"): magic, the header below as length-prefixed JSON, the
// graph's text format length-prefixed, the index section, then per class
// its log-likelihood and weights as IEEE-754 bits (JSON has no NaN, and
// they must round-trip exactly), closed by a CRC-32C trailer. Every row is
// stored once: a class costs its weights. Both ends stream through their own buffer:
// Save writes straight from the serving epoch's arenas, LoadEngine reads
// straight into fresh ones, and a follower decodes while its primary is
// still encoding.

const snapshotMagic = "SPXS\x06"

// snapMetagraph rebuilds one metagraph via metagraph.New.
type snapMetagraph struct {
	Types []graph.TypeID
	Edges []metagraph.Edge
}

// snapClass describes one trained class model.
type snapClass struct {
	Name       string
	Kept       []int
	Iterations int
}

// snapHeader says what follows it in the stream.
type snapHeader struct {
	Epoch   uint64 // serving epoch counter
	LSN     uint64 // durable log position
	Anchor  string
	Opts    Options
	Metas   []snapMetagraph
	Matched []int       // matched metagraphs, ascending
	Classes []snapClass // sorted by name
}

// Save serializes the engine so LoadEngine can restore it without mining,
// matching or training. Classes are written in sorted name order and the
// index serializes its frozen CSR arenas (compacted first), so saving the
// same engine twice yields identical bytes. Save reads one immutable
// epoch, so it is safe to call concurrently with queries, training, and
// updates — it simply snapshots whichever epoch is serving.
func (e *Engine) Save(w io.Writer) error {
	return e.saveEpoch(e.cur.Load(), w)
}

// SaveWait is Save with a durability gate for write-ahead-logged
// engines: the epoch to stream is pinned FIRST, wait is called with
// that epoch's LSN, and only after it returns is anything written.
// With wait = the WAL's WaitDurable this guarantees the snapshot never
// gets ahead of the durable log — without the gate, a pipelined commit
// (apply visible before fsync completes) could hand a bootstrapping
// follower state the primary loses in a crash, and the LSNs would be
// silently reassigned to different records under it.
func (e *Engine) SaveWait(w io.Writer, wait func(lsn uint64) error) error {
	ep := e.cur.Load()
	if wait != nil {
		if err := wait(ep.lsn); err != nil {
			return fmt.Errorf("semprox: snapshot durability gate at LSN %d: %w", ep.lsn, err)
		}
	}
	return e.saveEpoch(ep, w)
}

func (e *Engine) saveEpoch(ep *epoch, w io.Writer) error {
	h := snapHeader{
		Epoch:  ep.version,
		LSN:    ep.lsn,
		Anchor: ep.g.Types().Name(e.anchor),
		Opts:   e.opts,
		Metas:  make([]snapMetagraph, len(e.ms)),
	}
	for i, m := range e.ms {
		h.Metas[i] = snapMetagraph{Types: m.Types(), Edges: m.Edges()}
	}
	for i, ok := range ep.matched {
		if ok {
			h.Matched = append(h.Matched, i)
		}
	}
	for name, cm := range ep.classes {
		h.Classes = append(h.Classes, snapClass{Name: name, Kept: cm.kept, Iterations: cm.model.Iterations})
	}
	sort.Slice(h.Classes, func(i, j int) bool { return h.Classes[i].Name < h.Classes[j].Name })
	hdr, err := json.Marshal(&h)
	if err != nil {
		return fmt.Errorf("semprox: snapshot header: %w", err)
	}
	var gbuf bytes.Buffer
	if err := graph.Write(&gbuf, ep.g); err != nil {
		return fmt.Errorf("semprox: snapshot graph: %w", err)
	}
	fw := flat.NewWriter(w, snapshotMagic)
	fw.Bytes(hdr)
	fw.Bytes(gbuf.Bytes())
	index.Encode(fw, ep.ix)
	for _, sc := range h.Classes {
		cm := ep.classes[sc.Name]
		fw.Uint64(math.Float64bits(cm.model.LogLikelihood))
		for _, wi := range cm.model.W {
			fw.Uint64(math.Float64bits(wi))
		}
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("semprox: snapshot write: %w", err)
	}
	return nil
}

// LoadEngine restores an engine written by Save. The loaded engine answers
// Query, Proximity, Weights and Classes identically to the saved one,
// resumes at the saved epoch, and training new classes picks up the
// restored index (already matched metagraphs are never re-matched). The
// bytes are untrusted — a follower takes them off the network: the index is
// validated against the snapshot's own graph as it is decoded and against
// the header's matched set after, a class may keep only matched metagraphs,
// no allocation is sized by a count the stream merely claims, and nothing
// is published before the checksum has passed. The partner adjacency and
// the classes' denominators — derived, never stored — are rebuilt here, so
// the first query pays for nothing.
func LoadEngine(r io.Reader) (*Engine, error) {
	fr, err := flat.NewReader(r, snapshotMagic)
	if err != nil {
		return nil, fmt.Errorf("semprox: snapshot: %w", err)
	}
	// A failed stream hands out empty byte strings: its own error, not
	// the parse error of what it did not deliver, is the one to report.
	var h snapHeader
	err = json.Unmarshal(fr.Bytes(), &h)
	if fr.Err() != nil {
		err = fr.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("semprox: snapshot header: %w", err)
	}
	g, err := graph.Read(bytes.NewReader(fr.Bytes()))
	if fr.Err() != nil {
		err = fr.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("semprox: snapshot graph: %w", err)
	}
	g = g.WithVersion(h.Epoch)
	anchor := g.Types().ID(h.Anchor)
	if anchor == graph.InvalidType {
		return nil, fmt.Errorf("semprox: snapshot anchor type %q not in graph", h.Anchor)
	}
	e := &Engine{
		anchor: anchor,
		opts:   h.Opts,
		ms:     make([]*metagraph.Metagraph, len(h.Metas)),
	}
	for i, sm := range h.Metas {
		m, err := metagraph.New(sm.Types, sm.Edges)
		if err != nil {
			return nil, fmt.Errorf("semprox: snapshot metagraph %d: %w", i, err)
		}
		e.ms[i] = m
	}
	ep := &epoch{
		g:       g,
		matched: make([]bool, len(e.ms)),
		classes: make(map[string]*classModel, len(h.Classes)),
		version: h.Epoch,
		lsn:     h.LSN,
	}
	for k, slot := range h.Matched {
		if slot < 0 || slot >= len(e.ms) || k > 0 && slot <= h.Matched[k-1] {
			return nil, fmt.Errorf("semprox: snapshot matched metagraphs %v not ascending within [0, %d)", h.Matched, len(e.ms))
		}
		ep.matched[slot] = true
	}
	if ep.ix, err = index.Decode(fr, g.NumNodes()); err != nil {
		return nil, fmt.Errorf("semprox: snapshot index: %w", err)
	}
	// The section holds raw counts; the header says how they are read.
	ep.ix = ep.ix.Transform(h.Opts.countTransform())
	if ep.ix.NumMeta() != len(e.ms) {
		return nil, fmt.Errorf("semprox: snapshot index spans %d metagraphs, want %d", ep.ix.NumMeta(), len(e.ms))
	}
	for i, used := range ep.ix.MetaSupport() {
		if used && !ep.matched[i] {
			return nil, fmt.Errorf("semprox: snapshot index has rows of metagraph %d, which is not matched", i)
		}
	}
	for _, sc := range h.Classes {
		if _, dup := ep.classes[sc.Name]; dup {
			return nil, fmt.Errorf("semprox: snapshot class %q duplicated", sc.Name)
		}
		// An update re-matches the matched metagraphs only, and the weights
		// below are laid out dense over M by Kept.
		kept := make([]bool, len(e.ms))
		for _, idx := range sc.Kept {
			if idx < 0 || idx >= len(e.ms) || !ep.matched[idx] || kept[idx] {
				return nil, fmt.Errorf("semprox: snapshot class %q keeps metagraph %d: out of range, unmatched or repeated", sc.Name, idx)
			}
			kept[idx] = true
		}
		model := &core.Model{
			LogLikelihood: math.Float64frombits(fr.Uint64()),
			W:             make([]float64, len(sc.Kept)),
			Iterations:    sc.Iterations,
		}
		for i := range model.W {
			model.W[i] = math.Float64frombits(fr.Uint64())
		}
		ep.classes[sc.Name] = newClass(len(e.ms), sc.Kept, model)
	}
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("semprox: snapshot: %w", err)
	}
	e.publish(ep)
	return e, nil
}
