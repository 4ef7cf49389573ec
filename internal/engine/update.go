package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/wal"
)

// Live graph mutations. ApplyUpdate threads a batch of node/edge additions
// through every layer without repeating the offline pipeline: the graph
// grows into fresh flat arrays (graph.Apply), for each metagraph the epoch
// holds ONLY the instances through the delta's new edges are enumerated, by
// SymISO pinned at each of them (index.RematchDelta,
// match.GainedInstanceSets), their gains are added into the flat index
// (index.MergeGains, index.WithPatch) — but a two-edge metapath's, whose
// rows the index reads from the grown graph (index.On, index.PathNodes) —
// and the trained weight
// vectors are kept verbatim — the paper's w* weighs metagraph features,
// not nodes, so a graph delta changes the features, never the learned
// weights. The result is swapped
// in as the next epoch through the engine's atomic pointer: queries in
// flight finish on the old epoch, new queries see the new one, and no
// query ever observes a mix.

// UpdateStats describes what one ApplyUpdate did.
type UpdateStats struct {
	// Epoch is the serving epoch after the swap.
	Epoch uint64
	// LSN is the log sequence number the update was applied at (see
	// ApplyRecords); without a WAL it advances by one per update.
	LSN uint64
	// Records counts the log records the epoch covers: 1 for an update,
	// the valid prefix of the run for ApplyRecords.
	Records int
	// NodesAdded and EdgesAdded count the delta's genuinely new nodes and
	// edges (self loops, duplicates and already-present edges excluded).
	NodesAdded, EdgesAdded int
	// Touched counts the pre-existing nodes whose adjacency changed.
	Touched int
	// Rematched counts the held metagraphs that were incrementally
	// re-matched; what they gained was patched into the index. A two-edge
	// metapath is never re-matched: the grown graph holds its rows.
	Rematched int
	// Enumerated counts the search nodes the re-match visited over all
	// those metagraphs (match.SymISO.Visited). It depends on the degrees
	// around the new edges, not on the size of the graph.
	Enumerated int64
}

// ApplyUpdate grows the graph by d and atomically swaps in the next
// serving epoch. Held metagraphs gain the instances through the
// delta's new edges and nothing else is matched, the index is patched in
// the coordinates that gained, trained classes keep their weights, and
// queries are answered without interruption throughout (readers never
// block on the writer lock). The updated engine answers every query exactly as an engine
// whose index was rebuilt from scratch on the post-delta graph would.
//
// The metagraph set itself is NOT re-mined: the paper's framework
// (Fig. 3) refreshes mining offline, and a delta cannot introduce new
// node types, so the mined patterns remain well-formed. On error (unknown
// type, out-of-range endpoint) the engine is unchanged.
//
// ApplyUpdate is the unlogged form of ApplyRecords: one record at the
// engine's LSN + 1, read under the same writer lock.
func (e *Engine) ApplyUpdate(d graph.Delta) (UpdateStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyRecords([]wal.Record{{LSN: e.cur.Load().lsn + 1, Delta: d}}, nil)
}

// ApplyRecords applies a run of logged records at their own LSNs: the
// one way an update reaches an engine, for a primary's own update, replay
// (ReplayWAL) and a follower's stream alike. The run lies wholly beyond
// the engine's LSN and ascends by one; a run that does not is refused
// before anything is built or logged. Each record is validated at its
// own position (graph.ValidateApply against the node count as of that
// record), so a later record never absorbs an invalid one. The valid
// prefix is published as ONE epoch whose counter advances once per
// record: deltas are additive and new-node ids are assigned in order, so
// contiguous records coalesce by concatenation, and the engine is
// byte-identical to one that applied them one at a time
// (TestApplyRecordsMatchesOneAtATime).
//
// logged, when non-nil, is called once under the writer lock with the
// length of the valid prefix, after its epoch is built — so only for
// records the engine accepted — and before it is published; if it fails
// nothing is published and its error is returned. This is how the log
// order equals the apply order: a primary passes a hook that appends the
// record (wal.AppendAsync, which only sequences it; the caller gates its
// ack on wal.WaitDurable outside any lock), a follower one that fsyncs
// the batch. The lock order is the engine's writer lock, then the log's;
// nothing in internal/wal calls into the engine. UpdateStats describes
// the published epoch (Records 0 when none was); the error names the
// first invalid record, if any.
func (e *Engine) ApplyRecords(recs []wal.Record, logged func(valid int) error) (UpdateStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyRecords(recs, logged)
}

// applyRecords is ApplyRecords for a caller that holds e.mu.
func (e *Engine) applyRecords(recs []wal.Record, logged func(valid int) error) (UpdateStats, error) {
	ep := e.cur.Load()
	g, lsn, nodes, valid := ep.g, ep.lsn, ep.g.NumNodes(), 0
	var d graph.Delta
	var invalid error
	for _, r := range recs {
		if r.LSN <= lsn || valid > 0 && r.LSN != lsn+1 {
			invalid = fmt.Errorf("semprox: record LSN %d after LSN %d: %w", r.LSN, lsn, ErrRecordOrder)
			break
		}
		if err := graph.ValidateApply(g.Types(), nodes, r.Delta); err != nil {
			invalid = fmt.Errorf("semprox: record LSN %d: %w", r.LSN, err)
			break
		}
		d.Nodes = append(d.Nodes, r.Delta.Nodes...)
		d.Edges = append(d.Edges, r.Delta.Edges...)
		nodes, lsn = nodes+len(r.Delta.Nodes), r.LSN
		valid++
	}
	if valid == 0 {
		return UpdateStats{}, invalid
	}
	st, err := e.applyUpdate(d, valid, lsn, logged)
	if err != nil {
		return UpdateStats{}, err
	}
	return st, invalid
}

// ErrRecordOrder marks a record ApplyRecords refused for its LSN: not
// beyond the engine's, or not the next in its run. On a primary it means
// the log and the engine disagree about their position, which no request
// can cause.
var ErrRecordOrder = errors.New("a run lies beyond the engine's LSN and ascends by one")

// applyUpdate builds the next epoch covering `records` coalesced log
// records, validated by the caller, and publishes it at lsn. The caller
// holds e.mu. logged, when non-nil, runs once with records, and only
// after the delta is accepted: everything that can refuse an update
// refuses it first.
func (e *Engine) applyUpdate(d graph.Delta, records int, lsn uint64, logged func(valid int) error) (UpdateStats, error) {
	start := time.Now()
	ep := e.cur.Load()
	ng, touched, err := ep.g.Apply(d)
	if err != nil {
		return UpdateStats{}, err
	}
	engStageGraph.Since(start)
	if records > 1 {
		// One Apply bumped the graph version once; a coalesced run must
		// advance it once per record it covers, so the epoch counter stays
		// in lockstep with a replica that applied them one at a time.
		ng = ng.WithVersion(ep.g.Version() + uint64(records))
	}
	st := UpdateStats{
		Epoch:      ng.Version(),
		Records:    records,
		NodesAdded: len(d.Nodes),
		EdgesAdded: ng.NumEdges() - ep.g.NumEdges(),
		Touched:    len(touched),
	}

	ix, classes := ep.ix.On(ng), ep.classes
	var nodes []graph.NodeID // the nodes whose rows the update changed
	patch := time.Now()
	if len(ng.DeltaEdges()) > 0 {
		rematch := time.Now()
		var slots []int
		var gains []*index.Patch
		for i, ok := range ep.matched {
			if ok && !index.IsTwoEdgeMetapath(e.ms[i]) {
				slots = append(slots, i)
				gains = append(gains, index.RematchDelta(ng, e.ms[i], nil, nil))
			}
		}
		p := index.MergeGains(len(e.ms), slots, gains)
		engStageRematch.Since(rematch)
		st.Rematched = len(slots)
		st.Enumerated = p.Enumerated()
		patch = time.Now()
		// The gains are added to the stored counts here, before anything is
		// published: a count they would carry past 2^32-1 refuses the update
		// and leaves the engine as it was.
		if ix, err = ix.WithPatch(p); err != nil {
			return UpdateStats{}, fmt.Errorf("semprox: update refused: %w", err)
		}
		nodes = append(p.NodeKeys(), ix.PathNodes()...)
	}
	// A two-edge metapath's node span is the graph's, so new nodes widen
	// the denominators even where no row changed.
	if len(nodes) > 0 || ix.NodeSpan() != ep.ix.NodeSpan() {
		classes = make(map[string]*classModel, len(ep.classes))
		for name, cm := range ep.classes {
			classes[name] = cm.patched(ix, nodes)
		}
		engStagePatch.Since(patch)
	}

	if logged != nil {
		if err := logged(records); err != nil {
			return UpdateStats{}, err
		}
	}
	e.publish(&epoch{g: ng, ix: ix, matched: ep.matched, classes: classes, version: ng.Version(), lsn: lsn})
	st.LSN = lsn
	engApply.Since(start)
	engRematched.Observe(int64(st.Rematched))
	engEnumerated.Observe(st.Enumerated)
	return st, nil
}

// patched carries a class onto ix, the epoch's index after an update that
// changed the node rows of nodeKeys (a node may repeat): kept set and
// weights stand, and the denominators are recomputed for exactly those
// rows. A node the delta added either is one of them or has no row.
func (cm *classModel) patched(ix *index.Index, nodeKeys []graph.NodeID) *classModel {
	dots := make([]float64, ix.NodeSpan())
	copy(dots, cm.dots)
	for _, x := range nodeKeys {
		dots[x] = ix.NodeDot(x, cm.w)
	}
	return &classModel{kept: cm.kept, model: cm.model, w: cm.w, dots: dots}
}

// Compact does nothing: every epoch an update publishes is already in
// flat storage. It stays for benchmark/layers.go, which calls it (ROADMAP
// 8(a) drops both).
func (e *Engine) Compact() {}

// Stats is a consistent point-in-time snapshot of the serving state.
type Stats struct {
	// Epoch is the serving epoch counter (one per applied update).
	Epoch uint64
	// LSN is the durable log position of the serving epoch (see
	// Engine.LSN).
	LSN uint64
	// Nodes, Edges and Types describe the serving graph.
	Nodes, Edges, Types int
	// Metagraphs is |M|; Matched counts the metagraphs the epoch holds (see
	// Engine.MatchedCount): once a class is trained, those some class
	// weighs.
	Metagraphs, Matched int
	// Classes lists the trained class names, sorted.
	Classes []string
}

// Stats reports the current epoch's serving state. Safe for concurrent
// use; all fields describe ONE epoch.
func (e *Engine) Stats() Stats {
	ep := e.cur.Load()
	return Stats{
		Epoch:      ep.version,
		LSN:        ep.lsn,
		Nodes:      ep.g.NumNodes(),
		Edges:      ep.g.NumEdges(),
		Types:      ep.g.NumTypes(),
		Metagraphs: len(e.ms),
		Matched:    ep.matchedCount(),
		Classes:    View{ep}.Classes(),
	}
}
