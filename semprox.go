// Package semprox is the public API of this reproduction of "Semantic
// Proximity Search on Graphs with Metagraph-based Learning" (Fang et al.,
// ICDE 2016). It wires the substrates together exactly as the paper's
// framework figure (Fig. 3) does:
//
//	offline:  mine metagraphs → match them (SymISO) → index the
//	          metagraph vectors m_x, m_xy → learn per-class weights w*
//	online:   rank nodes by MGP proximity π(q, ·; w*)
//	live:     ApplyUpdate grows the graph while queries keep serving —
//	          re-match pinned at the new edges, index patching, atomic epoch swap
//
// The central type is Engine. A typical session:
//
//	b := semprox.NewGraphBuilder()
//	alice := b.AddNodeOnce("user", "Alice")
//	college := b.AddNodeOnce("school", "College A")
//	b.AddEdge(alice, college)
//	... more nodes and edges ...
//	g := b.MustBuild()
//
//	eng, err := semprox.NewEngine(g, "user", semprox.DefaultOptions())
//	eng.Train("classmate", examples)
//	semprox.TrainDualStage(eng, "family", familyExamples, 25)
//	results := eng.Query("classmate", alice, 10)
//
// This package is the offline facade (mining, Alg. 1) over internal/engine,
// which the serving daemon links alone. Everything is implemented from
// scratch on the standard library; see DESIGN.md for the system inventory
// and EXPERIMENTS.md for the reproduction of every table and figure.
package semprox

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dualstage"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// Re-exported building blocks so downstream users never import internal
// packages.
type (
	// Graph is an immutable typed object graph (Sect. II-A).
	Graph = graph.Graph
	// GraphBuilder accumulates nodes/edges and builds a Graph.
	GraphBuilder = graph.Builder
	// NodeID identifies a node of a Graph.
	NodeID = graph.NodeID
	// TypeID identifies an object type.
	TypeID = graph.TypeID
	// Metagraph is a type-level pattern graph (Sect. II-A).
	Metagraph = metagraph.Metagraph
	// Example is a pairwise training triplet (q, x, y): x should rank
	// before y for query q (Sect. III-B).
	Example = core.Example
	// Ranked is one result of a proximity query.
	Ranked = core.Ranked
	// Labels is a class's ground-truth relation, usable to generate
	// training examples.
	Labels = eval.Labels
	// Delta is a batch of node and edge additions (see graph.Delta).
	Delta = graph.Delta
	// DeltaNode declares one node addition of a Delta.
	DeltaNode = graph.DeltaNode
	// Edge is an undirected edge between two node ids.
	Edge = graph.Edge

	// The serving engine and what it reports (internal/engine).
	Engine      = engine.Engine
	View        = engine.View
	Options     = engine.Options
	Stats       = engine.Stats
	UpdateStats = engine.UpdateStats
)

// InvalidNode marks "no such node".
const InvalidNode = graph.InvalidNode

// InvalidType marks "no such object type".
const InvalidType = graph.InvalidType

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

var (
	// ReadGraph parses the text graph format (see WriteGraph).
	ReadGraph = graph.Read
	// WriteGraph serializes a graph in a line-oriented text format.
	WriteGraph = graph.Write
	// LoadEngine restores an engine written by Engine.Save.
	LoadEngine = engine.LoadEngine
	// ReplayWAL applies every logged record beyond the engine's LSN.
	ReplayWAL = engine.ReplayWAL
	// MakeExamples samples training triplets from a labeled relation: q
	// from train queries, x relevant to q, y a non-relevant candidate.
	MakeExamples = eval.MakeExamples
)

// DefaultOptions mirrors the paper's setup (metagraphs of ≤5 nodes,
// µ=5, γ=10 with decay, 5 restarts, SymISO matching) with matching
// parallelized over all available CPUs.
func DefaultOptions() Options {
	return Options{Mining: mining.DefaultOptions(), Train: core.DefaultTrain()}
}

// NewEngine mines the metagraph set of g (filtered to symmetric
// metagraphs with a symmetric pair of anchor-typed nodes, per Sect. V-A)
// and prepares lazy matching. anchorType is the object type proximity is
// measured between (e.g. "user").
func NewEngine(g *Graph, anchorType string, opts Options) (*Engine, error) {
	anchor := g.Types().ID(anchorType)
	if anchor == graph.InvalidType {
		return nil, fmt.Errorf("semprox: unknown anchor type %q", anchorType)
	}
	patterns := mining.ProximityFilter(mining.Mine(g, opts.Mining), anchor)
	return engine.New(g, anchor, mining.Metagraphs(patterns), opts), nil
}

// TrainDualStage learns the class with dual-stage training (Alg. 1):
// only the metapath seeds plus numCandidates heuristically-selected
// metagraphs are ever matched. Each stage's matching fans out over
// Options.Workers, and each stage trains on the projection of the index
// onto the metagraphs it selected.
func TrainDualStage(eng *Engine, class string, examples []Example, numCandidates int) {
	eng.Fit(class, func(ms []*Metagraph, train core.TrainOptions, match func([]int) *index.Index) ([]int, *core.Model) {
		opts := dualstage.Default(numCandidates)
		opts.Train = train
		res := dualstage.Run(ms, match, examples, opts)
		return res.Kept, res.Model
	})
}
