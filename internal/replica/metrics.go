// Replication observability, mirroring the WAL's split: rates (polls,
// applied records, bootstraps, promotions) are process-wide counters on
// the obs default registry; position gauges (lag, applied LSN, fenced) and
// the size of the last bootstrap's snapshot are per-instance callbacks
// with replace-on-register semantics — in a real follower daemon there is
// exactly one Follower, so the series is unambiguous.
package replica

import "repro/internal/obs"

var (
	repPolls = obs.Default().Counter("semprox_replica_polls_total",
		"Replication since-polls issued to the primary, successful or not.")
	repApplied = obs.Default().Counter("semprox_replica_records_applied_total",
		"Replicated records durably logged and applied to the local engine.")
	repBootstraps = obs.Default().Counter("semprox_replica_bootstraps_total",
		"Snapshot bootstraps — the initial one plus every divergence-forced re-bootstrap.")
	repPromotions = obs.Default().Counter("semprox_replica_promotions_total",
		"Followers promoted to primary (local log sealed at a raised term).")
)

// registerGauges wires f's position gauges; called from NewFollower.
func (f *Follower) registerGauges() {
	r := obs.Default()
	r.RegisterGaugeFunc("semprox_replica_lag",
		"Records behind the primary as of the last poll (0 when caught up).",
		func() float64 { return float64(f.Status().Lag) })
	r.RegisterGaugeFunc("semprox_replica_applied_lsn",
		"Highest LSN applied to the local engine.",
		func() float64 { return float64(f.applied.Load()) })
	r.RegisterGaugeFunc("semprox_replica_bootstrap_bytes",
		"Bytes of the snapshot the last successful bootstrap loaded (0 before one).",
		func() float64 { return float64(f.SnapshotBytes()) })
	r.RegisterGaugeFunc("semprox_replica_fenced",
		"1 while the last poll hit a deposed (stale-term) primary, else 0.",
		func() float64 {
			if f.fenced.Load() {
				return 1
			}
			return 0
		})
}
