// Engine observability: the update hot path and every ranked query record
// into the obs default registry (every engine in the process folds into one series —
// a real daemon runs one engine; in-process test stacks share the
// family, which only fattens the histograms). Per-instance gauges (the
// serving epoch) are registered by the tier that owns the instance —
// internal/server wires a GaugeFunc over its engine's Stats.

package engine

import "repro/internal/obs"

var (
	engApply = obs.Default().Histogram("semprox_engine_apply_seconds",
		"ApplyUpdate latency: validate, patch, and publish one new serving epoch.", obs.Seconds)
	engRematched = obs.Default().Histogram("semprox_engine_rematched_metagraphs",
		"Held metagraphs (those some class weighs) incrementally re-matched per update — the delta-bounded work the paper's offline rebuild would redo in full.", obs.Units)
	engEnumerated = obs.Default().Histogram("semprox_update_instances_enumerated",
		"Search nodes one update's re-match visited over all held metagraphs, SymISO pinned at each new edge: the work of an update, set by the degrees around its new edges and not by the size of the graph.", obs.Units)
	engRank = obs.Default().Histogram("semprox_query_rank_seconds",
		"One ranked query's candidate scan inside the engine (sum the query node's runs of the metagraphs the class weighs, score every partner reached, keep the top k), as the serving process pays it — caches cold between requests, which an in-process loop over the same index does not see.", obs.Seconds)
	engCandidates = obs.Default().Histogram("semprox_query_candidates_scanned",
		"Partners one ranked query scored: those the query node shares a metagraph of non-zero class weight with — the others score 0 and are never visited — the work a slow query did.", obs.Units)

	// What the serving epoch's one index holds resident, set at every
	// publish from its slice lengths.
	engIndexAdjacency = indexResident("adjacency")

	// The write path of one update, stage by stage.
	engStageGraph   = updateStage("graph")
	engStageRematch = updateStage("rematch")
	engStagePatch   = updateStage("patch")
)

func updateStage(stage string) *obs.Histogram {
	return obs.Default().Histogram("semprox_update_stage_seconds",
		"One update's write path by stage: graph grows the graph by the delta into fresh flat arrays; rematch is the search for the instances through the new edges of every held metagraph and their counting into one patch; patch adds the patch to the index, laid out anew, and recomputes the class denominators of the rows it changed.",
		obs.Seconds, obs.L("stage", stage))
}

func indexResident(part string) *obs.Gauge {
	return obs.Default().Gauge("semprox_index_resident_bytes",
		"Bytes the serving epoch's metagraph-vector index holds resident: the partner runs (adjacency), its one store of pair counts, whose run headers hold the node counts.",
		obs.L("part", part))
}
