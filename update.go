package semprox

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/index"
)

// Live graph mutations. ApplyUpdate threads a batch of node/edge additions
// through every layer without repeating the offline pipeline: the graph
// grows copy-on-write (graph.Apply), for each metagraph the epoch holds
// ONLY the instances through the delta's new edges are enumerated, by
// SymISO pinned at each of them (index.RematchDelta,
// match.GainedInstanceSets), the rows they add to overlay the flat CSR
// index (index.MergeGains, index.WithPatch), and the trained weight
// vectors are kept verbatim — the paper's w* weighs metagraph features,
// not nodes, so a graph delta changes the features, never the learned
// weights. The result is swapped
// in as the next epoch through the engine's atomic pointer: queries in
// flight finish on the old epoch, new queries see the new one, and no
// query ever observes a mix.

// Delta is a batch of node and edge additions (see graph.Delta): new nodes
// carry an already-registered type name and a value, and edges may
// reference both existing node ids and the ids of nodes added by the same
// delta.
type Delta = graph.Delta

// DeltaNode declares one node addition of a Delta.
type DeltaNode = graph.DeltaNode

// Edge is an undirected edge between two node ids.
type Edge = graph.Edge

// UpdateStats describes what one ApplyUpdate did.
type UpdateStats struct {
	// Epoch is the serving epoch after the swap.
	Epoch uint64
	// LSN is the log sequence number the update was applied at (see
	// ApplyUpdateLogged and ApplyUpdateAt); without a WAL it advances by
	// one per update.
	LSN uint64
	// NodesAdded and EdgesAdded count the delta's genuinely new nodes and
	// edges (self loops, duplicates and already-present edges excluded).
	NodesAdded, EdgesAdded int
	// Touched counts the pre-existing nodes whose adjacency changed.
	Touched int
	// Rematched counts the held metagraphs that were incrementally
	// re-matched; what they gained was patched into the index.
	Rematched int
	// Enumerated counts the search nodes the re-match visited over all
	// those metagraphs (match.SymISO.Visited). It depends on the degrees
	// around the new edges, not on the size of the graph.
	Enumerated int64
	// Pending counts the structures awaiting background compaction after
	// the swap (see Engine.Compact).
	Pending int
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
// ApplyUpdate leaves the new epoch's overlays uncompacted; call Compact
// (typically from a background goroutine, as cmd/semproxd does) to fold
// them into flat storage.
func (e *Engine) ApplyUpdate(d Delta) (UpdateStats, error) {
	return e.applyUpdate(d, 1, func(cur uint64) (uint64, error) { return cur + 1, nil })
}

// ApplyUpdateAt is ApplyUpdate with an explicit log sequence number: the
// next epoch records lsn as its durable position. Recovery and follower
// replicas re-apply logged records at their original LSNs this way, so
// the recovered (or replicated) engine ends at exactly the primary's
// position; a primary that logs its own updates uses ApplyUpdateLogged.
// lsn must exceed the engine's current LSN (records at or below it are
// already part of this engine's state; callers skip them).
func (e *Engine) ApplyUpdateAt(d Delta, lsn uint64) (UpdateStats, error) {
	if lsn == 0 {
		return UpdateStats{}, fmt.Errorf("semprox: ApplyUpdateAt: LSN must be positive")
	}
	return e.ApplyUpdateBatchAt(d, lsn, 1)
}

// ApplyUpdateBatchAt applies d as the coalescing of `records` contiguous
// log records ending at lsn (i.e. records lsn-records+1 .. lsn), in one
// epoch swap. Because deltas are additive and new-node ids are assigned
// deterministically (n, n+1, ... off the graph the delta lands on),
// contiguous logged deltas coalesce by plain concatenation: the merged
// delta assigns every node the same id and adds the same edge set as
// applying the records one at a time would. The epoch counter advances
// by `records` — one per coalesced record — so the resulting engine is
// byte-identical (graph, indices, classes, epoch, LSN, snapshot bytes)
// to the one-at-a-time engine after compaction; this is what lets a
// catching-up follower drain a replication batch through a single apply
// without its serving state diverging from the primary's
// (property-tested by TestApplyUpdateBatchMatchesOneAtATime).
//
// The whole range must lie beyond the engine's current LSN; on error the
// engine is unchanged.
func (e *Engine) ApplyUpdateBatchAt(d Delta, lsn uint64, records int) (UpdateStats, error) {
	if records < 1 {
		return UpdateStats{}, fmt.Errorf("semprox: ApplyUpdateBatchAt: records must be >= 1, got %d", records)
	}
	if lsn < uint64(records) {
		return UpdateStats{}, fmt.Errorf("semprox: ApplyUpdateBatchAt: %d records cannot end at LSN %d", records, lsn)
	}
	// The engine's LSN only grows, so a range stale now stays stale:
	// refuse it before any graph work. applyUpdate checks again under
	// the lock.
	if err := beyond(lsn, records, e.LSN()); err != nil {
		return UpdateStats{}, err
	}
	return e.applyUpdate(d, records, func(uint64) (uint64, error) { return lsn, nil })
}

// ApplyUpdateLogged is ApplyUpdate for a primary that logs its updates:
// appendLog appends d to the log and returns the LSN the log assigned
// it. Under the engine's writer lock it, in order, builds the next epoch
// (graph apply, re-match, the count-overflow refusal, class patch);
// calls appendLog exactly once, and only for a delta the engine accepted;
// checks that the assigned LSN is beyond the engine's; and publishes the
// epoch at that LSN. The log therefore holds only records the engine has
// accepted, and a refused update leaves both the log and the engine as
// they were. If appendLog fails, nothing is published and its error is
// returned.
//
// appendLog need not wait for the record to be durable (wal.AppendAsync
// only sequences it): the epoch is published before its record is on
// disk, and the caller gates its ack on the log's durability barrier
// (wal.WaitDurable, which commits the record) outside any lock. The lock order is the engine's writer lock, then
// the log's; nothing in internal/wal calls into the engine.
func (e *Engine) ApplyUpdateLogged(d Delta, appendLog func() (uint64, error)) (UpdateStats, error) {
	return e.applyUpdate(d, 1, func(uint64) (uint64, error) { return appendLog() })
}

// beyond refuses a range of `records` log records ending at lsn unless
// it lies wholly past the engine's LSN cur.
func beyond(lsn uint64, records int, cur uint64) error {
	if lsn-uint64(records)+1 <= cur {
		return fmt.Errorf("semprox: records %d..%d not beyond engine LSN %d", lsn-uint64(records)+1, lsn, cur)
	}
	return nil
}

// applyUpdate builds the next epoch covering `records` coalesced log
// records (1 for a plain update) and publishes it at the LSN that
// assign returns for the engine's current LSN. assign runs under e.mu,
// once, and only after the delta is accepted: everything that can
// refuse an update refuses it first.
func (e *Engine) applyUpdate(d Delta, records int, assign func(cur uint64) (uint64, error)) (UpdateStats, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	ng, touched, err := ep.g.Apply(d)
	if err != nil {
		return UpdateStats{}, err
	}
	if records > 1 {
		// One Apply bumped the graph version once; a coalesced batch must
		// advance it once per record it covers, so the epoch counter stays
		// in lockstep with a replica that applied them one at a time.
		ng = ng.WithVersion(ep.g.Version() + uint64(records))
	}
	st := UpdateStats{
		Epoch:      ng.Version(),
		NodesAdded: len(d.Nodes),
		EdgesAdded: ng.NumEdges() - ep.g.NumEdges(),
		Touched:    len(touched),
	}

	ix, classes := ep.ix, ep.classes
	if len(ng.DeltaEdges()) > 0 {
		rematch := time.Now()
		var slots []int
		var gains []*index.Patch
		for i, ok := range ep.matched {
			if ok {
				slots = append(slots, i)
				gains = append(gains, index.RematchDelta(ng, e.ms[i], nil, nil))
			}
		}
		p := index.MergeGains(len(e.ms), slots, gains)
		engStageRematch.Since(rematch)
		st.Rematched = len(slots)
		st.Enumerated = p.Enumerated()
		if !p.Empty() {
			patch := time.Now()
			// The gains are added to the stored counts here, before anything
			// is published: a count they would carry past 2^32-1 refuses the
			// update and leaves the engine as it was.
			if ix, err = ix.WithPatch(p); err != nil {
				return UpdateStats{}, fmt.Errorf("semprox: update refused: %w", err)
			}
			classes = make(map[string]*classModel, len(ep.classes))
			for name, cm := range ep.classes {
				classes[name] = cm.patched(ix, p.NodeKeys())
			}
			engStagePatch.Since(patch)
		}
	}

	lsn, err := assign(ep.lsn)
	if err != nil {
		return UpdateStats{}, err
	}
	if err := beyond(lsn, records, ep.lsn); err != nil {
		return UpdateStats{}, err
	}
	nep := &epoch{g: ng, ix: ix, matched: ep.matched, classes: classes, version: ng.Version(), lsn: lsn}
	e.publish(nep)
	st.LSN, st.Pending = lsn, nep.pending
	engApply.Since(start)
	engRematched.Observe(int64(st.Rematched))
	engEnumerated.Observe(st.Enumerated)
	return st, nil
}

// patched carries a class onto ix, the epoch's index after a patch that
// replaced the node rows of nodeKeys: kept set and weights stand, and the
// denominators are recomputed for exactly those rows. A node the delta
// added either is one of them or has no row.
func (cm *classModel) patched(ix *index.Index, nodeKeys []graph.NodeID) *classModel {
	dots := make([]float64, ix.NodeSpan())
	copy(dots, cm.dots)
	for _, x := range nodeKeys {
		dots[x] = ix.NodeVec(x).Dot(cm.w)
	}
	return &classModel{kept: cm.kept, model: cm.model, w: cm.w, dots: dots}
}

// Compact folds every copy-on-write overlay of the current epoch — the
// graph's touched rows and the index's patched ones — into fresh flat CSR
// storage and swaps the compacted epoch in. It is a no-op when nothing is
// pending. Queries keep serving throughout (results are identical before
// and after; compaction only restores the flat-storage read path), so it
// is safe — and intended — to run from a background goroutine after
// ApplyUpdate.
func (e *Engine) Compact() {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	if ep.pending == 0 {
		return
	}
	engCompactions.Inc()
	// Compaction moves rows, not values: the classes' denominators stand.
	e.publish(&epoch{g: ep.g.Compact(), ix: ep.ix.Compact(), matched: ep.matched, classes: ep.classes, version: ep.version, lsn: ep.lsn})
}

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
	// PendingCompaction counts the structures (graph, index) still
	// carrying update overlays that Compact would fold away.
	PendingCompaction int
	// Classes lists the trained class names, sorted.
	Classes []string
}

// Stats reports the current epoch's serving state. Safe for concurrent
// use; all fields describe ONE epoch.
func (e *Engine) Stats() Stats {
	ep := e.cur.Load()
	classes := make([]string, 0, len(ep.classes))
	for c := range ep.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return Stats{
		Epoch:             ep.version,
		LSN:               ep.lsn,
		Nodes:             ep.g.NumNodes(),
		Edges:             ep.g.NumEdges(),
		Types:             ep.g.NumTypes(),
		Metagraphs:        len(e.ms),
		Matched:           ep.matchedCount(),
		PendingCompaction: ep.pending,
		Classes:           classes,
	}
}
