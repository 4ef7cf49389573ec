package engine

import (
	"cmp"
	"fmt"

	"repro/internal/wal"
)

// Crash recovery. A write-ahead-logged deployment (semproxd -wal) logs
// every update the engine accepts and acks it only once the record is
// durable: the engine builds the next epoch, the accepted delta is
// appended to the log at the next LSN, and the epoch is published at
// that LSN (Engine.ApplyUpdateLogged). The log therefore holds only
// records the engine accepted. On a crash — no clean shutdown, snapshot
// arbitrarily stale — recovery is: load the newest
// snapshot (LSN L), open the WAL (which heals any torn tail), and
// ReplayWAL the records with LSN > L. The recovered engine is
// byte-identical to one that never crashed (property-tested in the root
// package's recovery_test.go), because ApplyRecords is deterministic and
// replay re-applies exactly the suffix the snapshot misses.

// replayRun bounds the records ReplayWAL decodes and applies as one epoch.
const replayRun = 256

// ReplayWAL applies every logged record beyond the engine's current LSN,
// in order, and returns how many it applied: runs of up to replayRun
// records go through Engine.ApplyRecords, as a follower's polled batch
// does. skipped is always 0 (the
// log holds only records the engine accepted); it stays for its callers.
//
// A record the engine rejects means the log and the snapshot disagree
// about the graph (most plausibly a -wal directory paired with the wrong
// snapshot, since byte-level corruption is already caught by the WAL's
// CRC framing) and aborts the replay with an error naming its LSN: that
// is corruption, not something to paper over. The records before it
// stay applied.
//
// ReplayWAL fails up front on either misalignment between log and
// engine: a log missing records the engine needs (its first retained LSN
// is beyond engine LSN + 1 — the snapshot predates the log's truncation
// horizon), or a log that ends BEHIND the engine (a stale WAL directory
// paired with a newer snapshot) — serving in that state would hand
// future appends LSNs the engine has already passed.
func ReplayWAL(e *Engine, w *wal.WAL) (applied, skipped int, err error) {
	at := e.LSN()
	if first := w.FirstLSN(); first > at+1 {
		return 0, 0, fmt.Errorf("semprox: wal starts at LSN %d but engine is at %d: snapshot predates log truncation", first, at)
	}
	if next := w.NextLSN(); next <= at {
		return 0, 0, fmt.Errorf("semprox: wal ends at LSN %d but engine is at %d: stale log directory for this snapshot", next-1, at)
	}
	run := make([]wal.Record, 0, replayRun)
	flush := func() error {
		st, aerr := e.ApplyRecords(run, nil)
		applied += st.Records
		run = run[:0]
		if aerr != nil {
			return fmt.Errorf("semprox: replay: record rejected — the log and the snapshot disagree about the graph (mispaired -wal directory?): %w", aerr)
		}
		return nil
	}
	err = w.Replay(at, func(r wal.Record) error {
		if run = append(run, r); len(run) < replayRun {
			return nil
		}
		return flush()
	})
	// The records read before an undecodable one still apply.
	err = cmp.Or(err, flush())
	return applied, 0, err
}
