package wal

import (
	"errors"
	"testing"

	"repro/internal/faultfs"
)

// TestInjectedFsyncFailureNeverAcks is the ack-discipline regression test:
// an append whose fsync fails must return the error (never an LSN the
// caller would treat as durable), poison the log sticky, and leave every
// PREVIOUSLY acked record replayable after reopen.
func TestInjectedFsyncFailureNeverAcks(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New()
	// Serial appends sync once per record: skip the first three, fail the
	// fourth — and every later one, in case a later commit retries.
	inj.Arm(faultfs.Rule{Op: faultfs.OpSync, After: 3, Times: 1 << 30})
	w, err := Open(dir, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 3, 1)
	if _, err := appendDurable(w, delta(3)); err == nil {
		t.Fatal("append acked with its fsync failed")
	}
	if w.Err() == nil {
		t.Fatal("failed fsync did not poison the log")
	}
	if _, err := appendDurable(w, delta(4)); err == nil {
		t.Fatal("append accepted on a poisoned log")
	}
	w.Close()

	// Reopen clean: the three acked records are there; whether the fourth
	// survived is the disk's business (its write may have landed), but the
	// durable prefix must contain everything that was acked.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.DurableLSN(); got < 3 {
		t.Fatalf("reopened durable = %d, want >= 3 (acked records lost)", got)
	}
	recs := collect(t, w2, 0)
	if len(recs) < 3 || recs[0].LSN != 1 || recs[2].LSN != 3 {
		t.Fatalf("acked records lost across reopen: %+v", recs)
	}
}

// TestInjectedTornWriteLosesOnlyUnacked tears a write mid-record — the
// shape a crash mid-write leaves — and proves the contract from both
// sides: the torn append was never acked, AND after reopen the torn
// bytes are truncated away, the acked prefix is intact, and the log
// appends onward from exactly where the acked history ends.
func TestInjectedTornWriteLosesOnlyUnacked(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New()
	inj.Arm(faultfs.Rule{Op: faultfs.OpWrite, After: 2, TearBytes: 5, Err: errors.New("injected torn write")})
	w, err := Open(dir, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 2, 1)
	if _, err := appendDurable(w, delta(2)); err == nil {
		t.Fatal("append acked with only 5 of its bytes written")
	}
	if w.Err() == nil {
		t.Fatal("torn write did not poison the log")
	}
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	defer w2.Close()
	if got := w2.DurableLSN(); got != 2 {
		t.Fatalf("reopened durable = %d, want 2 (torn record must not count)", got)
	}
	if recs := collect(t, w2, 0); len(recs) != 2 {
		t.Fatalf("acked prefix damaged: %+v", recs)
	}
	// The healed log resumes at LSN 3 — the torn record's LSN is reused,
	// which is correct: it was never acknowledged to anyone.
	appendN(t, w2, 1, 3)
}

// TestWaitDurableSurfacesInjectedFailure pins the ack barrier:
// AppendAsync hands out the LSN before the fsync, so WaitDurable — the
// gate the server holds every client ack behind, and the commit it
// leads — must report the injected fsync failure instead of returning
// success or hanging.
func TestWaitDurableSurfacesInjectedFailure(t *testing.T) {
	inj := faultfs.New()
	inj.Arm(faultfs.Rule{Op: faultfs.OpSync, Times: 1 << 30})
	w, err := Open(t.TempDir(), Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn, err := w.AppendAsync(delta(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err == nil {
		t.Fatal("WaitDurable returned success for a record whose fsync failed")
	}
	// An LSN the log never assigned is refused, not left to block forever.
	if err := w.WaitDurable(lsn + 10); err == nil {
		t.Fatal("WaitDurable accepted an unassigned LSN")
	}
}

// TestInjectedCreateFailurePoisonsRotation: a segment-creation failure at
// the rotation boundary must fail the append that triggered it, sticky.
func TestInjectedCreateFailurePoisonsRotation(t *testing.T) {
	inj := faultfs.New()
	// The first create (Open's fresh segment) succeeds; the rotation's
	// create fails.
	inj.Arm(faultfs.Rule{Op: faultfs.OpCreate, After: 1, Times: 1 << 30})
	w, err := Open(t.TempDir(), Options{SegmentBytes: 64, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var lastErr error
	for i := 0; i < 20 && lastErr == nil; i++ {
		_, lastErr = appendDurable(w, delta(i))
	}
	if lastErr == nil {
		t.Fatal("20 appends at 64-byte rotation never hit the injected create failure")
	}
	if w.Err() == nil {
		t.Fatal("failed rotation did not poison the log")
	}
}
