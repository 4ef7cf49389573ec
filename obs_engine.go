// Engine observability: the update hot path and every ranked query record
// into the obs default registry (every engine in the process folds into one series —
// a real daemon runs one engine; in-process test stacks share the
// family, which only fattens the histograms). Per-instance gauges (the
// serving epoch) are registered by the tier that owns the instance —
// internal/server wires a GaugeFunc over its engine's Stats.
package semprox

import "repro/internal/obs"

var (
	engApply = obs.Default().Histogram("semprox_engine_apply_seconds",
		"ApplyUpdate latency: validate, patch, and publish one new serving epoch.", obs.Seconds)
	engRematched = obs.Default().Histogram("semprox_engine_rematched_metagraphs",
		"Matched metagraphs incrementally re-matched per update — the delta-bounded work the paper's offline rebuild would redo in full.", obs.Units)
	engEnumerated = obs.Default().Histogram("semprox_update_instances_enumerated",
		"Assignments, partial and complete, one update's delta-seeded re-match visited over all matched metagraphs: the work of an update, set by the degrees around its new edges and not by the size of the graph.", obs.Units)
	engRank = obs.Default().Histogram("semprox_query_rank_seconds",
		"One ranked query's candidate scan inside the engine (resolve the adjacency row, score every candidate, keep the top k), as the serving process pays it — caches cold between requests, which an in-process loop over the same index does not see.", obs.Seconds)
	engCandidates = obs.Default().Histogram("semprox_query_candidates_scanned",
		"Candidates one ranked query scored: the length of the query node's partner list, the work a slow query did.", obs.Units)
	engCompactions = obs.Default().Counter("semprox_engine_compactions_total",
		"Background compactions that folded update overlays into flat storage.")

	// What the serving epoch's one index holds resident, set at every
	// publish from its slice lengths.
	engIndexTables      = indexResident("tables")
	engIndexAdjacency   = indexResident("adjacency")
	engIndexOverlay     = indexResident("overlay")
	engIndexOverlayRows = obs.Default().Gauge("semprox_index_overlay_rows",
		"Node and pair rows of the serving index that an update patched and compaction has not yet folded into flat storage.")
)

func indexResident(part string) *obs.Gauge {
	return obs.Default().Gauge("semprox_index_resident_bytes",
		"Bytes the serving epoch's metagraph-vector index holds resident: the flat by-key node and pair tables, the partner adjacency derived from them, and the update overlay (patched rows and their partner rows) awaiting compaction.",
		obs.L("part", part))
}
