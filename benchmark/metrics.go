package main

import "fmt"

// The metric tables. BENCHMARK.json lists the same names and units (a
// test holds the two together); every run emits exactly one table in
// full — endToEnd with -trace 0, perLayer with -trace 1 — whatever the
// workload, so any two result lines of one kind are comparable.

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "snapshot_mb", unit: "MB"},
	{name: "read_ops_s", unit: "1/s"},
	{name: "query_p50_us", unit: "us"},
	{name: "proximity_p50_us", unit: "us"},
	{name: "batch_p50_us", unit: "us"},
	{name: "server_cpu_us_per_op", unit: "us"},
}

// perLayer is named <package>.<metric>: the layers are this repository's
// packages. Time metrics are medians unless the name says otherwise; a
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{name: "core.rank_us", unit: "us"},
	{name: "core.rank_allocs_op", unit: "count"},
	{name: "core.candidates_scanned", unit: "count"},
	{name: "core.proximity_us", unit: "us"},
	{name: "core.train_s", unit: "s"},
	{name: "index.partners_us", unit: "us"},
	{name: "index.partners_len_p50", unit: "count"},
	{name: "index.partners_len_p99", unit: "count"},
	{name: "index.build_s", unit: "s"},
	{name: "index.rematch_ms", unit: "ms"},
	{name: "index.compact_ms", unit: "ms"},
	{name: "index.pending_compaction", unit: "count"},
	{name: "match.symiso_s", unit: "s"},
	{name: "mining.mine_s", unit: "s"},
	{name: "dataset.generate_s", unit: "s"},
	{name: "graph.apply_delta_ms", unit: "ms"},
	{name: "graph.resolve_us", unit: "us"},
	{name: "semprox.query_self_us", unit: "us"},
	{name: "semprox.query_allocs_op", unit: "count"},
	{name: "semprox.apply_update_ms", unit: "ms"},
	{name: "semprox.update_rematched", unit: "count"},
	{name: "semprox.save_s", unit: "s"},
	{name: "semprox.load_s", unit: "s"},
	{name: "semprox.replay_ms_per_record", unit: "ms"},
	{name: "wal.append_durable_ms", unit: "ms"},
	{name: "wal.bytes_per_record", unit: "B"},
	{name: "wal.open_ms", unit: "ms"},
	{name: "server.query_self_us", unit: "us"},
	{name: "server.proximity_self_us", unit: "us"},
	{name: "server.batch_self_us", unit: "us"},
	{name: "server.serve_allocs_op", unit: "count"},
	{name: "server.response_bytes", unit: "B"},
	{name: "server.update_self_ms", unit: "ms"},
	{name: "api.encode_us", unit: "us"},
	{name: "api.decode_us", unit: "us"},
	{name: "api.response_bytes", unit: "B"},
	{name: "client.query_self_us", unit: "us"},
	{name: "client.router_follower_share", unit: "ratio"},
	{name: "replica.lag_ms", unit: "ms"},
	{name: "proxy.hit_us", unit: "us"},
	{name: "proxy.miss_us", unit: "us"},
	{name: "proxy.cache_hit_ratio", unit: "ratio"},
	{name: "proxy.hedge_ratio", unit: "ratio"},
	{name: "proxy.evictions", unit: "count"},
	{name: "obs.requests_served", unit: "count"},
	{name: "gen.ops_sent", unit: "count"},
	{name: "gen.busy_share", unit: "ratio"},
	{name: "gen.clients", unit: "count"},
	{name: "gen.ref_rtt_us", unit: "us"},
	{name: "gen.go_build_s", unit: "s"},
	{name: "env.nproc", unit: "count"},
	{name: "env.gomaxprocs", unit: "count"},
	{name: "setup.replicas_s", unit: "s"},
	{name: "build_s", unit: "s"},
	{name: "restart_s", unit: "s"},
	{name: "rss_mb", unit: "MB"},
	{name: "update_p50_ms", unit: "ms"},
	{name: "query_p99_us", unit: "us"},
	{name: "update_tail_ms", unit: "ms"},
	{name: "update_ops_s", unit: "1/s"},
	{name: "trace.spans", unit: "count"},
	{name: "trace.overhead_ns_per_span", unit: "ns"},
	{name: "trace.unattributed_ratio", unit: "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// calibrationMS (see calibrate) travels beside the contract's four
	// keys, never among them: suite files store it, stdout does not.
	calibrationMS float64
}

// fill builds the metrics object from a table and the measured values,
// refusing a value the table does not name or a table entry left unset:
// a metric silently missing from a run is how trajectories rot.
func fill(table []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(table))
	for _, d := range table {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the metric table", name)
		}
	}
	return out, nil
}
