package semprox

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// Options configures an Engine.
type Options struct {
	// Mining bounds metagraph enumeration (size cap, MNI support).
	Mining mining.Options
	// Train configures gradient ascent (µ, γ, restarts, ...).
	Train core.TrainOptions
	// Workers bounds the goroutines used for offline metagraph matching
	// (the dominant cost of Table III). Values < 1 mean one worker per
	// available CPU. Matching fans out one metagraph per worker with a
	// private matcher, and the per-metagraph vectors merge
	// deterministically by metagraph offset, so the built index is
	// identical for every worker count. Queries never fan out: a ranked
	// read is one short serial scan on the caller's goroutine.
	Workers int
	// LogTransform applies log(1+count) to the metagraph vectors, the
	// count transform suggested in Sect. II-A. Off by default.
	LogTransform bool
}

// DefaultOptions mirrors the paper's setup (metagraphs of ≤5 nodes,
// µ=5, γ=10 with decay, 5 restarts, SymISO matching) with matching
// parallelized over all available CPUs.
func DefaultOptions() Options {
	return Options{
		Mining: mining.DefaultOptions(),
		Train:  core.DefaultTrain(),
	}
}

// log1p is the count transform used when Options.LogTransform is set.
func log1p(c float64) float64 { return math.Log1p(c) }

// Engine is the end-to-end semantic proximity search system.
//
// Thread safety: the engine serves every read — Query, QueryBatch,
// Proximity, Weights, Classes, Graph, Epoch, View, MatchedCount, Stats,
// Save —
// from an immutable epoch published through an atomic pointer, so reads
// are always safe, always lock-free, and always see one consistent
// (graph, index, classes) snapshot, never a mix of two generations.
// Writers — Train, TrainDualStage, ApplyUpdate, Compact — serialize among
// themselves on an internal mutex, build the next epoch off the read
// path, and swap it in atomically; they never block a reader. SetWorkers
// is the one exception: call it before serving.
type Engine struct {
	anchor graph.TypeID
	opts   Options

	ms []*metagraph.Metagraph

	// mu serializes epoch writers; cur is the serving epoch.
	mu  sync.Mutex
	cur atomic.Pointer[epoch]
}

// epoch is one immutable serving generation: the graph version, the lazy
// matching cache, and the trained classes that go with it. Epochs are
// never mutated after publish — writers copy what changes and share the
// rest.
type epoch struct {
	g *graph.Graph

	// metaIx caches the single-metagraph index of each matched metagraph;
	// dual-stage training matches lazily and never re-matches. Matchers
	// are built per worker by matchMissing (SymISO carries per-Match
	// scratch sized to the graph, and SymISO-R style engines may carry
	// mutable state), so none is retained.
	metaIx []*index.Index

	classes map[string]*classModel

	// version is the serving epoch counter: the graph's Apply generation,
	// persisted across snapshots. pending counts the structures (graph +
	// indices) still carrying copy-on-write overlays that Compact would
	// fold into flat storage.
	version uint64
	pending int

	// lsn is the log sequence number of the last durable update applied:
	// a write-ahead-logged update carries its WAL-assigned LSN through
	// ApplyUpdateAt, recovery replays records with LSN > lsn, and a
	// follower replica reports primaryLSN - lsn as its lag. Without a WAL
	// it simply advances by one per update, mirroring version.
	lsn uint64
}

// classModel is the learned state of one semantic class.
type classModel struct {
	kept  []int // metagraph indices the model was trained on
	ix    *index.Index
	model *core.Model
	// dots is ix.NodeDots(model.W): m_v·w by node id, the half of every
	// candidate's denominator a query does not change. Derived like the
	// adjacency — publish fills it in, patchClass carries it, no snapshot
	// holds it.
	dots []float64
}

// NewEngine mines the metagraph set of g (filtered to symmetric
// metagraphs with a symmetric pair of anchor-typed nodes, per Sect. V-A)
// and prepares lazy matching. anchorType is the object type proximity is
// measured between (e.g. "user").
func NewEngine(g *graph.Graph, anchorType string, opts Options) (*Engine, error) {
	anchor := g.Types().ID(anchorType)
	if anchor == graph.InvalidType {
		return nil, fmt.Errorf("semprox: unknown anchor type %q", anchorType)
	}
	e := &Engine{anchor: anchor, opts: opts}
	patterns := mining.ProximityFilter(mining.Mine(g, opts.Mining), anchor)
	e.ms = mining.Metagraphs(patterns)
	e.cur.Store(&epoch{
		g:       g,
		metaIx:  make([]*index.Index, len(e.ms)),
		classes: make(map[string]*classModel),
		version: g.Version(),
	})
	return e, nil
}

// Graph returns the graph of the current serving epoch.
func (e *Engine) Graph() *Graph { return e.cur.Load().g }

// Epoch returns the serving epoch counter: 0 for a freshly built engine,
// +1 per ApplyUpdate, preserved across Save/LoadEngine.
func (e *Engine) Epoch() uint64 { return e.cur.Load().version }

// LSN returns the log sequence number of the last update applied: the
// position of this engine in its write-ahead log (see internal/wal).
// Snapshots persist it, so recovery knows exactly which WAL records the
// snapshot already covers. Safe for concurrent use.
func (e *Engine) LSN() uint64 { return e.cur.Load().lsn }

// SetWorkers overrides Options.Workers (values < 1 mean one worker per
// CPU). A snapshot-loaded engine carries the worker count of the host
// that saved it; the serving host retunes it here. Call before serving —
// unlike everything else on the engine, it must not race with training.
func (e *Engine) SetWorkers(n int) { e.opts.Workers = n }

// Metagraphs returns the mined metagraph set M (do not modify).
func (e *Engine) Metagraphs() []*Metagraph { return e.ms }

// NumMetagraphs returns |M|.
func (e *Engine) NumMetagraphs() int { return len(e.ms) }

// matchMissing matches the still-unmatched metagraphs of the subset on
// ep's graph, fanning them out over Options.Workers goroutines via
// index.MatchParts (one private matcher per worker). It returns a metaIx
// slice with every requested slot populated — ep.metaIx itself when
// nothing was missing, a copy otherwise (epochs are immutable; the caller
// publishes the copy). Callers hold e.mu.
//
// index.MatchParts cannot fail: its only returns are the part indices
// (one per input metagraph, always populated) and the per-metagraph
// wall-clock durations — there is no error to propagate here, only
// timing data this path has no use for.
func (e *Engine) matchMissing(ep *epoch, metaIx []*index.Index, indices []int) []*index.Index {
	pending := make([]int, 0, len(indices))
	for _, i := range indices {
		if metaIx[i] == nil {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return metaIx
	}
	ms := make([]*metagraph.Metagraph, len(pending))
	for k, i := range pending {
		ms[k] = e.ms[i]
	}
	parts, _ := index.MatchParts(ms, func() match.Matcher {
		return match.NewSymISO(ep.g)
	}, e.opts.Workers)
	out := append([]*index.Index(nil), metaIx...)
	for k, i := range pending {
		part := parts[k]
		if e.opts.LogTransform {
			part = part.Transform(log1p)
		}
		out[i] = part
	}
	return out
}

// mergeFor merges the cached vectors of a metagraph subset in the order
// of indices, so the result is deterministic for every worker count.
// Every requested slot must already be matched.
func mergeFor(metaIx []*index.Index, indices []int) *index.Index {
	parts := make([]*index.Index, len(indices))
	for k, i := range indices {
		parts[k] = metaIx[i]
	}
	return index.Merge(parts...)
}

// MatchedCount reports how many metagraphs have been matched so far —
// after TrainDualStage this stays well below NumMetagraphs, which is the
// whole point of Alg. 1. Safe for concurrent use (it reads one epoch).
func (e *Engine) MatchedCount() int {
	n := 0
	for _, ix := range e.cur.Load().metaIx {
		if ix != nil {
			n++
		}
	}
	return n
}

// publish installs the next epoch with its pending-compaction count
// recomputed. It is the one door to readers, so it finishes every class
// first: the partner adjacency a ranked read scans and the denominators it
// adds up are derived here, on the writer (both already there for a class
// patchClass carried over), and no reader of a published epoch ever builds
// either. Callers hold e.mu.
func (e *Engine) publish(ep *epoch) {
	for _, cm := range ep.classes {
		cm.ix.BuildAdjacency()
		if cm.dots == nil {
			cm.dots = cm.ix.NodeDots(cm.model.W)
		}
	}
	ep.pending = 0
	if ep.g.Overlaid() {
		ep.pending++
	}
	for _, ix := range ep.metaIx {
		if ix != nil && ix.Pending() {
			ep.pending++
		}
	}
	for _, cm := range ep.classes {
		if cm.ix.Pending() {
			ep.pending++
		}
	}
	e.cur.Store(ep)
}

// withClass copies the class table with one entry replaced.
func withClass(classes map[string]*classModel, name string, cm *classModel) map[string]*classModel {
	out := make(map[string]*classModel, len(classes)+1)
	for k, v := range classes {
		out[k] = v
	}
	out[name] = cm
	return out
}

// Train learns the weight vector of the named class over ALL metagraphs,
// matching unmatched ones in parallel (Options.Workers) on first use.
// Queries keep serving the previous epoch until the trained class is
// swapped in.
func (e *Engine) Train(class string, examples []Example) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	all := make([]int, len(e.ms))
	for i := range all {
		all[i] = i
	}
	metaIx := e.matchMissing(ep, ep.metaIx, all)
	ix := mergeFor(metaIx, all)
	cm := &classModel{kept: all, ix: ix, model: core.Train(ix, examples, e.opts.Train)}
	e.publish(&epoch{
		g:       ep.g,
		metaIx:  metaIx,
		classes: withClass(ep.classes, class, cm),
		version: ep.version,
		lsn:     ep.lsn,
	})
}

// TrainDualStage learns the class with dual-stage training (Alg. 1):
// only the metapath seeds plus numCandidates heuristically-selected
// metagraphs are ever matched. Each stage's matching fans out over
// Options.Workers.
func (e *Engine) TrainDualStage(class string, examples []Example, numCandidates int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	metaIx := ep.metaIx
	matchFn := func(indices []int) *index.Index {
		metaIx = e.matchMissing(ep, metaIx, indices)
		return mergeFor(metaIx, indices)
	}
	opts := core.DefaultDualStage(numCandidates)
	opts.Train = e.opts.Train
	res := core.DualStage(e.ms, matchFn, examples, opts)
	cm := &classModel{kept: res.Kept, ix: mergeFor(metaIx, res.Kept), model: res.Model}
	e.publish(&epoch{
		g:       ep.g,
		metaIx:  metaIx,
		classes: withClass(ep.classes, class, cm),
		version: ep.version,
		lsn:     ep.lsn,
	})
}

// Classes returns the trained class names, sorted.
func (e *Engine) Classes() []string {
	classes := e.cur.Load().classes
	out := make([]string, 0, len(classes))
	for c := range classes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Weights returns the learned weight per metagraph index for a class
// (zero for metagraphs the class never matched), or nil if the class is
// untrained.
func (e *Engine) Weights(class string) []float64 {
	cm := e.cur.Load().classes[class]
	if cm == nil {
		return nil
	}
	w := make([]float64, len(e.ms))
	for k, idx := range cm.kept {
		w[idx] = cm.model.W[k]
	}
	return w
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
func (v View) Graph() *Graph { return v.ep.g }

// HasClass reports whether the pinned generation has trained class name.
func (v View) HasClass(name string) bool {
	_, ok := v.ep.classes[name]
	return ok
}

// Classes returns the trained class names of the pinned generation,
// sorted.
func (v View) Classes() []string {
	out := make([]string, 0, len(v.ep.classes))
	for c := range v.ep.classes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Query ranks the nodes closest to q under the named class and returns
// the top k (k <= 0 returns all candidates). The class must be trained.
// The scan runs on the caller's goroutine (core.RankCandidates). Safe for
// concurrent use at any time, including while the engine trains, applies
// updates, or compacts.
func (e *Engine) Query(class string, q NodeID, k int) ([]Ranked, error) {
	return e.View().Query(class, q, k)
}

// Query is Engine.Query against the pinned epoch.
func (v View) Query(class string, q NodeID, k int) ([]Ranked, error) {
	cm := v.ep.classes[class]
	if cm == nil {
		return nil, fmt.Errorf("semprox: class %q not trained", class)
	}
	return rank(cm, q, k), nil
}

// rank answers one ranked query on a class and records how long the scan
// took and how many candidates it visited.
func rank(cm *classModel, q NodeID, k int) []Ranked {
	start := time.Now()
	cands := cm.ix.Candidates(q)
	top := core.RankCandidates(cands, cm.model.W, cm.dots, k)
	engRank.Since(start)
	engCandidates.Observe(int64(len(cands.Nodes)))
	return top
}

// QueryBatch answers many queries of one class in a single call, one
// after the other. Results align with qs, and the whole batch is answered
// from ONE epoch: a concurrent ApplyUpdate never splits a batch across
// generations. Safe for concurrent use.
func (e *Engine) QueryBatch(class string, qs []NodeID, k int) ([][]Ranked, error) {
	return e.View().QueryBatch(class, qs, k)
}

// QueryBatch is Engine.QueryBatch against the pinned epoch.
func (v View) QueryBatch(class string, qs []NodeID, k int) ([][]Ranked, error) {
	cm := v.ep.classes[class]
	if cm == nil {
		return nil, fmt.Errorf("semprox: class %q not trained", class)
	}
	out := make([][]Ranked, len(qs))
	for i, q := range qs {
		out[i] = rank(cm, q, k)
	}
	return out, nil
}

// Proximity evaluates π(x, y) under the named class's learned weights.
// Safe for concurrent use.
func (e *Engine) Proximity(class string, x, y NodeID) (float64, error) {
	return e.View().Proximity(class, x, y)
}

// Proximity is Engine.Proximity against the pinned epoch.
func (v View) Proximity(class string, x, y NodeID) (float64, error) {
	cm := v.ep.classes[class]
	if cm == nil {
		return 0, fmt.Errorf("semprox: class %q not trained", class)
	}
	return core.Proximity(cm.ix, cm.model.W, x, y), nil
}
