// Package engine is the online half of semprox (the paper's Fig. 3): the
// epoch engine that ranks, applies live updates, snapshots and replays its
// write-ahead log. It links no miner and no Alg. 1: New takes
// the metagraphs the root package's NewEngine mined, LoadEngine a snapshot,
// and Fit a caller's training. The serving daemon links it alone.
package engine

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/metagraph"
)

// Options configures an Engine. It has no worker count: matching fans out
// one metagraph per goroutine over runtime.GOMAXPROCS, as mining does, and
// the index it builds is the same at any CPU count. A query never fans out:
// a ranked read is one short serial scan on the caller's goroutine.
type Options struct {
	// Mining bounds metagraph enumeration (size cap, MNI support).
	Mining metagraph.MiningOptions
	// Train configures gradient ascent (µ, γ, restarts, ...).
	Train core.TrainOptions
}

// Engine is the end-to-end semantic proximity search system.
//
// Thread safety: the engine serves every read — Query, QueryBatch,
// Proximity, Weights, Classes, Graph, Epoch, View, MatchedCount, Stats,
// Save — from an immutable epoch published through an atomic pointer, so
// reads are always safe, always lock-free, and always see one consistent
// (graph, index, classes) snapshot, never a mix of two generations.
// Writers — Train, Fit, ApplyUpdate, ApplyRecords — serialize among
// themselves on an internal mutex, build the next epoch off the read
// path, and swap it in atomically; they never block a reader.
type Engine struct {
	anchor graph.TypeID
	opts   Options

	ms []*metagraph.Metagraph

	// mu serializes epoch writers; cur is the serving epoch.
	mu  sync.Mutex
	cur atomic.Pointer[epoch]
}

// epoch is one immutable serving generation: the graph version, the one
// index of the metagraphs it holds, and the trained classes that go with
// it. Epochs are never mutated after publish — writers copy what
// changes and share the rest.
type epoch struct {
	g *graph.Graph

	// ix holds the metagraph vectors over all of M (Eq. 1–2): it spans
	// len(Engine.ms) metagraphs and has rows for the held ones only.
	// matched[i] says the epoch holds metagraph i: matched, and kept up to
	// date by every update. Once a class is installed the held set is the
	// union of the classes' non-zero weights (see install); a metagraph
	// training needs and the epoch does not hold is matched again on the
	// current graph (matchMissing), and no matcher is retained.
	ix      *index.Index
	matched []bool

	classes map[string]*classModel

	// version is the serving epoch counter: the graph's Apply generation,
	// persisted across snapshots.
	version uint64

	// lsn is the log sequence number of the last update applied: a
	// write-ahead-logged update carries its LSN through ApplyRecords on a
	// primary, in recovery and on followers alike, recovery replays
	// records with LSN > lsn, and a
	// follower replica reports primaryLSN - lsn as its lag. Without a WAL
	// it simply advances by one per update, mirroring version.
	lsn uint64
}

// classModel is the learned state of one semantic class: which metagraphs
// it weighs and their weights (Sect. III-B). It ranks on the
// epoch's index through two derived slices.
type classModel struct {
	kept  []int // metagraph indices the class weighs, in training order (model.W aligns)
	model *core.Model
	// w is model.W dense over M: w[kept[k]] = model.W[k], zero elsewhere. A
	// zero weight adds an exact +0 to a dot product, so scanning the rows of
	// all of M under w scores what the kept coordinates alone would.
	w []float64
	// dots is ix.NodeDots(w) on the epoch's index: m_v·w by node id, the
	// half of every candidate's denominator a query does not change. Derived
	// on the writer — publish fills it in, an update carries it, no snapshot
	// holds it.
	dots []float64
}

// newClass derives the dense weights of a class over numMeta metagraphs;
// publish adds the denominators.
func newClass(numMeta int, kept []int, model *core.Model) *classModel {
	w := make([]float64, numMeta)
	for k, i := range kept {
		w[i] = model.W[k]
	}
	return &classModel{kept: kept, model: model, w: w}
}

// New prepares lazy matching of the metagraph set ms on g, proximity being
// measured between nodes of the anchor type; nothing is matched until a
// class is trained.
func New(g *graph.Graph, anchor graph.TypeID, ms []*metagraph.Metagraph, opts Options) *Engine {
	e := &Engine{anchor: anchor, opts: opts, ms: ms}
	e.cur.Store(&epoch{
		g:       g,
		ix:      index.Empty(len(ms)),
		matched: make([]bool, len(ms)),
		classes: make(map[string]*classModel),
		version: g.Version(),
	})
	return e
}

// Graph returns the graph of the current serving epoch.
func (e *Engine) Graph() *graph.Graph { return e.cur.Load().g }

// Epoch returns the serving epoch counter: 0 for a freshly built engine,
// +1 per ApplyUpdate, preserved across Save/LoadEngine.
func (e *Engine) Epoch() uint64 { return e.cur.Load().version }

// LSN returns the log sequence number of the last update applied: the
// position of this engine in its write-ahead log (see internal/wal).
// Snapshots persist it, so recovery knows exactly which WAL records the
// snapshot already covers. Safe for concurrent use.
func (e *Engine) LSN() uint64 { return e.cur.Load().lsn }

// Metagraphs returns the mined metagraph set M (do not modify).
func (e *Engine) Metagraphs() []*metagraph.Metagraph { return e.ms }

// NumMetagraphs returns |M|.
func (e *Engine) NumMetagraphs() int { return len(e.ms) }

// matchMissing counts the still-unmatched metagraphs of the subset on g
// (index.Count) and adds them to the index at their slots. It returns the
// index and matched set with every requested slot populated — the ones
// passed in when nothing was missing, copies otherwise (epochs are
// immutable; the caller publishes the copies). Callers hold e.mu.
func (e *Engine) matchMissing(g *graph.Graph, ix *index.Index, matched []bool, indices []int) (*index.Index, []bool) {
	var missing []int
	var ms []*metagraph.Metagraph
	for _, i := range indices {
		if !matched[i] {
			missing, ms = append(missing, i), append(ms, e.ms[i])
		}
	}
	if len(missing) == 0 {
		return ix, matched
	}
	matched = slices.Clone(matched)
	for _, i := range missing {
		matched[i] = true
	}
	return ix.AddParts(missing, index.Count(g, ms)), matched
}

// MatchedCount reports how many metagraphs the serving epoch holds: matched,
// indexed and kept up to date by updates. Once a class is trained that is
// the metagraphs some class weighs, so it stays below NumMetagraphs whenever
// w* is sparse (Fig. 4), and after a dual-stage Fit below the metagraphs Alg. 1
// matched. Safe for concurrent use (it reads one epoch).
func (e *Engine) MatchedCount() int { return e.cur.Load().matchedCount() }

func (ep *epoch) matchedCount() int {
	n := 0
	for _, ok := range ep.matched {
		if ok {
			n++
		}
	}
	return n
}

// publish installs the next epoch. It is the one door to readers, so it
// finishes the epoch first: the denominators a ranked read adds up are derived here, on the
// writer (already there when an update carried them over), and no reader
// of a published epoch ever derives them. Callers hold e.mu.
func (e *Engine) publish(ep *epoch) {
	for _, cm := range ep.classes {
		if cm.dots == nil {
			cm.dots = ep.ix.NodeDots(cm.w)
		}
	}
	engIndexAdjacency.Set(ep.ix.Footprint())
	e.cur.Store(ep)
}

// install is the one way a class enters an epoch: it returns the epoch that
// follows ep when training has grown the index to ix (matched) and produced
// the named class. It matches in full what the class weighs that ix does not
// hold yet — after Train, which matched nothing, all of that; after Fit,
// whatever its matcher left out — cuts every class's kept set to the
// coordinates it weighs, and drops the rows and matched bits of every
// metagraph no class weighs, in the same step: a zero weight adds an exact
// +0 to every score, so the epoch answers as if it held them. The other
// classes carry over; when the index changed their denominators are dropped
// for publish to derive again, because newly matched rows can name nodes the
// old ones did not. Callers hold e.mu and publish the result.
func (e *Engine) install(ep *epoch, ix *index.Index, matched []bool, name string, cm *classModel) *epoch {
	cm = cm.weighed()
	ix, matched = e.matchMissing(ep.g, ix, matched, cm.kept)
	classes := make(map[string]*classModel, len(ep.classes)+1)
	for k, v := range ep.classes {
		classes[k] = v.weighed()
	}
	classes[name] = cm
	held := make([]bool, len(e.ms))
	for _, c := range classes {
		for _, i := range c.kept {
			held[i] = true
		}
	}
	if !slices.Equal(held, matched) {
		ix, matched = ix.Restrict(held), held
	}
	if ix != ep.ix {
		for k, v := range classes {
			if k != name {
				classes[k] = &classModel{kept: v.kept, model: v.model, w: v.w}
			}
		}
	}
	return &epoch{g: ep.g, ix: ix, matched: matched, classes: classes, version: ep.version, lsn: ep.lsn}
}

// weighed is the class with kept and its model's weights cut to the
// coordinates it weighs (w ≠ 0), in their order: the class itself when it
// weighs all it keeps.
func (cm *classModel) weighed() *classModel {
	var kept []int
	var w []float64
	for k, i := range cm.kept {
		if cm.model.W[k] != 0 {
			kept = append(kept, i)
			w = append(w, cm.model.W[k])
		}
	}
	if len(kept) == len(cm.kept) {
		return cm
	}
	model := *cm.model
	model.W = w
	return &classModel{kept: kept, model: &model, w: cm.w, dots: cm.dots}
}

// Train learns the weight vector of the named class over all of M from the
// rows its examples name (core.TrainKeys): the epoch's own rows for the
// metagraphs it holds, and for every other metagraph a rooted count at the
// example nodes alone (index.RootedParts). install then matches in full
// only what the class weighs. Queries keep serving the previous epoch
// until the trained class is swapped in.
func (e *Engine) Train(class string, examples []core.Example) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	keys := core.TrainKeys(examples)
	var missing []int
	var ms []*metagraph.Metagraph
	for i, ok := range ep.matched {
		if !ok {
			missing = append(missing, i)
			ms = append(ms, e.ms[i])
		}
	}
	parts := index.RootedParts(ep.g, ms, keys)
	rows := ep.ix.Select(keys).AddParts(missing, parts)
	all := make([]int, len(e.ms))
	for i := range all {
		all[i] = i
	}
	cm := newClass(len(e.ms), all, core.Train(rows, examples, e.opts.Train))
	e.publish(e.install(ep, ep.ix, ep.matched, class, cm))
}

// Fit learns the named class with the caller's training (the root
// package's TrainDualStage runs Alg. 1 through it). Under the writer lock,
// fit gets M, the training options and a matcher that matches the requested
// metagraphs the epoch does not hold yet (matchMissing) and returns
// the index projected onto them, in the order given; it returns the
// metagraphs its model weighs, aligned with its weights, for install.
func (e *Engine) Fit(class string, fit func(ms []*metagraph.Metagraph, train core.TrainOptions, match func(indices []int) *index.Index) (kept []int, model *core.Model)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	ix, matched := ep.ix, ep.matched
	kept, model := fit(e.ms, e.opts.Train, func(indices []int) *index.Index {
		ix, matched = e.matchMissing(ep.g, ix, matched, indices)
		return ix.Project(indices)
	})
	e.publish(e.install(ep, ix, matched, class, newClass(len(e.ms), kept, model)))
}

// Classes returns the trained class names, sorted.
func (e *Engine) Classes() []string { return e.View().Classes() }

// Weights returns the learned weight per metagraph index for a class, dense
// over M (zero for metagraphs the class does not weigh, which the epoch
// need not hold), or nil if the class is untrained.
func (e *Engine) Weights(class string) []float64 {
	cm := e.cur.Load().classes[class]
	if cm == nil {
		return nil
	}
	return slices.Clone(cm.w)
}

// View pins the current serving epoch: every read through the returned
// View — Query, QueryBatch, Proximity, Graph, Epoch — answers from the
// SAME immutable (graph, index, classes) generation, even while updates
// swap new epochs in concurrently. Engine.Query and Engine.Epoch each
// load the epoch pointer independently, so a caller pairing their
// results can observe a torn (result, epoch) combination across an
// update; callers that need the pairing exact — the serving layer stamps
// each response with the epoch that produced it so the edge cache can
// key on it — take one View and read everything through it. Views are
// cheap (one atomic load) and must not be retained beyond the request:
// a held View keeps its whole epoch reachable.
func (e *Engine) View() View { return View{ep: e.cur.Load()} }

// View is one pinned serving epoch of an Engine (see Engine.View). Safe
// for concurrent use; all methods describe the same generation.
type View struct {
	ep *epoch
}

// Epoch returns the serving epoch counter of the pinned generation.
func (v View) Epoch() uint64 { return v.ep.version }

// Graph returns the graph of the pinned generation.
func (v View) Graph() *graph.Graph { return v.ep.g }

// HasClass reports whether the pinned generation has trained class name.
func (v View) HasClass(name string) bool {
	_, ok := v.ep.classes[name]
	return ok
}

// Classes returns the trained class names of the pinned generation,
// sorted.
func (v View) Classes() []string { return slices.Sorted(maps.Keys(v.ep.classes)) }

// Query ranks the nodes closest to q under the named class and returns
// the top k (k <= 0 returns all candidates). The class must be trained.
// The scan runs on the caller's goroutine (core.RankCandidates). Safe for
// concurrent use at any time, including while the engine trains or applies
// updates.
func (e *Engine) Query(class string, q graph.NodeID, k int) ([]core.Ranked, error) {
	return e.View().Query(class, q, k)
}

// Query is Engine.Query against the pinned epoch.
func (v View) Query(class string, q graph.NodeID, k int) ([]core.Ranked, error) {
	cm := v.ep.classes[class]
	if cm == nil {
		return nil, fmt.Errorf("semprox: class %q not trained", class)
	}
	return rank(v.ep.ix, cm, q, k), nil
}

// rank answers one ranked query on a class and records how long the scan
// took and how many partners it scored.
func rank(ix *index.Index, cm *classModel, q graph.NodeID, k int) []core.Ranked {
	start := time.Now()
	top, scanned := core.RankCandidates(ix, cm.w, cm.dots, q, k)
	engRank.Since(start)
	engCandidates.Observe(int64(scanned))
	return top
}

// QueryBatch answers many queries of one class in a single call, one
// after the other. Results align with qs, and the whole batch is answered
// from ONE epoch: a concurrent ApplyUpdate never splits a batch across
// generations. Safe for concurrent use.
func (e *Engine) QueryBatch(class string, qs []graph.NodeID, k int) ([][]core.Ranked, error) {
	return e.View().QueryBatch(class, qs, k)
}

// QueryBatch is Engine.QueryBatch against the pinned epoch.
func (v View) QueryBatch(class string, qs []graph.NodeID, k int) ([][]core.Ranked, error) {
	cm := v.ep.classes[class]
	if cm == nil {
		return nil, fmt.Errorf("semprox: class %q not trained", class)
	}
	out := make([][]core.Ranked, len(qs))
	for i, q := range qs {
		out[i] = rank(v.ep.ix, cm, q, k)
	}
	return out, nil
}

// Proximity evaluates π(x, y) under the named class's learned weights.
// Safe for concurrent use.
func (e *Engine) Proximity(class string, x, y graph.NodeID) (float64, error) {
	return e.View().Proximity(class, x, y)
}

// Proximity is Engine.Proximity against the pinned epoch.
func (v View) Proximity(class string, x, y graph.NodeID) (float64, error) {
	cm := v.ep.classes[class]
	if cm == nil {
		return 0, fmt.Errorf("semprox: class %q not trained", class)
	}
	return core.Proximity(v.ep.ix, cm.w, x, y), nil
}
