// WAL observability: throughput counters and latency histograms are
// process-wide (recorded into the obs default registry — every WAL in
// the process folds into one series, which is exactly one WAL in a real
// daemon), while per-instance state (current term, sticky failure,
// durable watermark) registers as callback gauges with
// replace-on-register semantics, so the most recently opened log owns
// those series.
package wal

import "repro/internal/obs"

var (
	walAppends = obs.Default().Counter("semprox_wal_appends_total",
		"Records handed to the WAL commit pipeline (async and raw-batch appends).")
	walFsync = obs.Default().Histogram("semprox_wal_fsync_seconds",
		"Latency of each coalesced group-commit fsync.", obs.Seconds)
	walBatch = obs.Default().Histogram("semprox_wal_commit_batch_records",
		"Records written per group-commit batch — the fsync-sharing convoy size.", obs.Units)
)

// registerGauges wires w's instance-state gauges; called once from Open.
func (w *WAL) registerGauges() {
	r := obs.Default()
	r.RegisterGaugeFunc("semprox_wal_term",
		"Current term of the most recently opened WAL.",
		func() float64 { return float64(w.Term()) })
	r.RegisterGaugeFunc("semprox_wal_failed",
		"1 when the WAL has failed sticky (every append refused), else 0.",
		func() float64 {
			if w.Err() != nil {
				return 1
			}
			return 0
		})
	r.RegisterGaugeFunc("semprox_wal_durable_lsn",
		"Highest LSN known durable (fsynced) on the most recently opened WAL.",
		func() float64 { return float64(w.DurableLSN()) })
}
