// Package semprox is the public API of this reproduction of "Semantic
// Proximity Search on Graphs with Metagraph-based Learning" (Fang et al.,
// ICDE 2016). It wires the substrates together exactly as the paper's
// framework figure (Fig. 3) does:
//
//	offline:  mine metagraphs → match them (SymISO) → index the
//	          metagraph vectors m_x, m_xy → learn per-class weights w*
//	online:   rank nodes by MGP proximity π(q, ·; w*)
//	live:     ApplyUpdate grows the graph while queries keep serving —
//	          delta-seeded re-match, index patching, atomic epoch swap
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
//	eng.Train("classmate", examples)            // or TrainDualStage
//	results := eng.Query("classmate", alice, 10)
//
// Everything is implemented from scratch on the standard library; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure.
package semprox

import (
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/metagraph"
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
)

// InvalidNode marks "no such node".
const InvalidNode = graph.InvalidNode

// InvalidType marks "no such object type".
const InvalidType = graph.InvalidType

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// ReadGraph parses the text graph format (see WriteGraph).
var ReadGraph = graph.Read

// WriteGraph serializes a graph in a line-oriented text format.
var WriteGraph = graph.Write

// MakeExamples samples training triplets from a labeled relation: q from
// train queries, x relevant to q, y a non-relevant candidate.
var MakeExamples = eval.MakeExamples
