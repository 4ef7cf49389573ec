package semprox

import (
	"fmt"
	"math"
	"slices"
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
	// LogTransform reads the metagraph vectors as log(1+count), the count
	// transform suggested in Sect. II-A. The index stores raw counts either
	// way and applies it as each value is read. Off by default.
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

// countTransform is what the engine's index reads its counts through: log1p
// when LogTransform is set, the count itself otherwise.
func (o Options) countTransform() func(float64) float64 {
	if o.LogTransform {
		return log1pCount
	}
	return nil
}

// log1pSmall holds math.Log1p of the counts nearly every row holds (99.6 %
// of them are below 128 at 5 000 users), so that reading one costs a lookup.
var log1pSmall = func() (t [256]float64) {
	for c := range t {
		t[c] = math.Log1p(float64(c))
	}
	return t
}()

// log1pCount is math.Log1p of an instance count, bit for bit.
func log1pCount(c float64) float64 {
	if c < float64(len(log1pSmall)) {
		return log1pSmall[int(c)]
	}
	return math.Log1p(c)
}

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

// epoch is one immutable serving generation: the graph version, the one
// index of every metagraph matched so far, and the trained classes that go
// with it. Epochs are never mutated after publish — writers copy what
// changes and share the rest.
type epoch struct {
	g *graph.Graph

	// ix holds the metagraph vectors over all of M (Eq. 1–2): it spans
	// len(Engine.ms) metagraphs and has rows for the matched ones only.
	// matched[i] says metagraph i has been matched; dual-stage training
	// matches lazily and never re-matches. Matchers are built per worker by
	// matchMissing (SymISO carries per-Match scratch sized to the graph, and
	// SymISO-R style engines may carry mutable state), so none is retained.
	ix      *index.Index
	matched []bool

	classes map[string]*classModel

	// version is the serving epoch counter: the graph's Apply generation,
	// persisted across snapshots. pending counts the structures (graph,
	// index) still carrying copy-on-write overlays that Compact would fold
	// into flat storage.
	version uint64
	pending int

	// lsn is the log sequence number of the last durable update applied:
	// a write-ahead-logged update carries its WAL-assigned LSN through
	// ApplyUpdateAt, recovery replays records with LSN > lsn, and a
	// follower replica reports primaryLSN - lsn as its lag. Without a WAL
	// it simply advances by one per update, mirroring version.
	lsn uint64
}

// classModel is the learned state of one semantic class: which metagraphs
// it was trained on and their weights (Sect. III-B). It ranks on the
// epoch's index through two derived slices.
type classModel struct {
	kept  []int // metagraph indices the model was trained on
	model *core.Model
	// w is model.W dense over M: w[kept[k]] = model.W[k], zero elsewhere. A
	// zero weight adds an exact +0 to a dot product, so scanning the rows of
	// all of M under w scores what the kept coordinates alone would.
	w []float64
	// dots is ix.NodeDots(w) on the epoch's index: m_v·w by node id, the
	// half of every candidate's denominator a query does not change. Derived
	// like the adjacency — publish fills it in, an update carries it, no
	// snapshot holds it.
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
		ix:      index.NewBuilder(len(e.ms)).Build(),
		matched: make([]bool, len(e.ms)),
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
// index.MatchParts (one private matcher per worker), and merges them into
// the index at their slots. It returns the index and matched set with every
// requested slot populated — the ones passed in when nothing was missing,
// copies otherwise (epochs are immutable; the caller publishes the copies),
// the index reading its counts through Options' transform. Callers hold
// e.mu.
//
// index.MatchParts cannot fail: its only returns are the part indices
// (one per input metagraph, always populated) and the per-metagraph
// wall-clock durations — there is no error to propagate here, only
// timing data this path has no use for.
func (e *Engine) matchMissing(g *graph.Graph, ix *index.Index, matched []bool, indices []int) (*index.Index, []bool) {
	var missing []int
	for _, i := range indices {
		if !matched[i] {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return ix, matched
	}
	ms := make([]*metagraph.Metagraph, len(missing))
	for k, i := range missing {
		ms[k] = e.ms[i]
	}
	parts, _ := index.MatchParts(ms, func() match.Matcher {
		return match.NewSymISO(g)
	}, e.opts.Workers)
	matched = slices.Clone(matched)
	for _, i := range missing {
		matched[i] = true
	}
	return ix.AddParts(missing, parts).Transform(e.opts.countTransform()), matched
}

// MatchedCount reports how many metagraphs have been matched so far —
// after TrainDualStage this stays well below NumMetagraphs, which is the
// whole point of Alg. 1. Safe for concurrent use (it reads one epoch).
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

// publish installs the next epoch with its pending-compaction count
// recomputed. It is the one door to readers, so it finishes the epoch
// first: the partner adjacency a ranked read scans and the denominators it
// adds up are derived here, on the writer (both already there when an
// update carried them over), and no reader of a published epoch ever builds
// either. Callers hold e.mu.
func (e *Engine) publish(ep *epoch) {
	ep.ix.BuildAdjacency()
	for _, cm := range ep.classes {
		if cm.dots == nil {
			cm.dots = ep.ix.NodeDots(cm.w)
		}
	}
	ep.pending = 0
	if ep.g.Overlaid() {
		ep.pending++
	}
	if ep.ix.Pending() {
		ep.pending++
	}
	fp := ep.ix.Footprint()
	engIndexTables.Set(fp.Tables)
	engIndexAdjacency.Set(fp.Adjacency)
	engIndexOverlay.Set(fp.Overlay)
	engIndexOverlayRows.Set(int64(fp.OverlayRows))
	e.cur.Store(ep)
}

// trained is the epoch that follows ep when training has grown the index
// to ix and produced the named class. The other classes carry over; when
// the index grew their denominators are dropped for publish to derive
// again, because newly matched rows can name nodes the old ones did not.
func (ep *epoch) trained(ix *index.Index, matched []bool, name string, cm *classModel) *epoch {
	classes := make(map[string]*classModel, len(ep.classes)+1)
	for k, v := range ep.classes {
		if ix != ep.ix {
			v = &classModel{kept: v.kept, model: v.model, w: v.w}
		}
		classes[k] = v
	}
	classes[name] = cm
	return &epoch{g: ep.g, ix: ix, matched: matched, classes: classes, version: ep.version, lsn: ep.lsn}
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
	ix, matched := e.matchMissing(ep.g, ep.ix, ep.matched, all)
	cm := newClass(len(e.ms), all, core.Train(ix, examples, e.opts.Train))
	e.publish(ep.trained(ix, matched, class, cm))
}

// TrainDualStage learns the class with dual-stage training (Alg. 1):
// only the metapath seeds plus numCandidates heuristically-selected
// metagraphs are ever matched. Each stage's matching fans out over
// Options.Workers, and each stage trains on the projection of the index
// onto the metagraphs it selected.
func (e *Engine) TrainDualStage(class string, examples []Example, numCandidates int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	ix, matched := ep.ix, ep.matched
	matchFn := func(indices []int) *index.Index {
		ix, matched = e.matchMissing(ep.g, ix, matched, indices)
		return ix.Project(indices)
	}
	opts := core.DefaultDualStage(numCandidates)
	opts.Train = e.opts.Train
	res := core.DualStage(e.ms, matchFn, examples, opts)
	e.publish(ep.trained(ix, matched, class, newClass(len(e.ms), res.Kept, res.Model)))
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
	return rank(v.ep.ix, cm, q, k), nil
}

// rank answers one ranked query on a class and records how long the scan
// took and how many candidates it visited.
func rank(ix *index.Index, cm *classModel, q NodeID, k int) []Ranked {
	start := time.Now()
	cands := ix.Candidates(q)
	top := core.RankCandidates(cands, cm.w, cm.dots, k)
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
		out[i] = rank(v.ep.ix, cm, q, k)
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
	return core.Proximity(v.ep.ix, cm.w, x, y), nil
}
