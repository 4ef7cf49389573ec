// Package replica adds read replicas on top of the WAL: a primary serves
// its log and snapshots over HTTP, and a follower bootstraps from a
// primary snapshot, streams the delta records the snapshot doesn't cover,
// and applies them through the engine's epoch machinery — so follower
// reads stay lock-free and byte-identical to the primary at the same LSN.
// This is the ROADMAP's horizontal-read-scaling step: any number of
// followers can serve /query traffic while the primary alone accepts
// /update.
//
// Wire protocol (declared in the public api package, mounted by
// internal/server, spoken by the client package):
//
//	GET /v1/replicate/snapshot     an engine snapshot stream (engine.Save)
//	GET /v1/replicate/since?lsn=N  records with LSN > N as api.SinceResponse
//	    [&max=M][&wait_ms=T]       long-polls up to T ms when none exist
//	    [&term=X][&seen_term=S]    history check and fencing, see ServeSince
//
// The since response carries each delta in the same binary encoding the
// WAL stores (base64 inside JSON), plus the primary's durable LSN so the
// follower can measure its lag.
package replica

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/api"
	"repro/internal/engine"
	"repro/internal/wal"
)

// DefaultMaxBatch bounds the records returned by one since request.
const DefaultMaxBatch = 1024

// DefaultMaxWait caps a long poll; clients re-poll after a drained wait.
const DefaultMaxWait = 25 * time.Second

// DefaultMaxBytes bounds the cumulative delta payload of one since
// response. The follower hard-caps its JSON decode at 256MB and treats a
// truncated body as a transient error, so an over-large response would
// wedge it in a retry loop on the very same request; batches that stop
// well under the cap (even after base64 and JSON overhead) keep every
// response consumable. A single record larger than the bound is still
// sent alone — progress beats the bound.
const DefaultMaxBytes = 32 << 20

// Primary serves one engine's WAL to followers.
type Primary struct {
	eng *engine.Engine
	log *wal.WAL
	// MaxBatch, MaxBytes and MaxWait override the defaults when > 0;
	// mostly for tests.
	MaxBatch int
	MaxBytes int
	MaxWait  time.Duration

	// confirmed is the highest LSN any follower has reported durably
	// applied (the lsn= parameter of its since polls — a follower only
	// advances that after its local WAL fsynced the records). Writers
	// that want synchronous replication wait on it via WaitConfirmed.
	mu          sync.Mutex
	confirmed   uint64
	confirmedCh chan struct{} // closed and replaced when confirmed advances
}

// NewPrimary wraps an engine and the WAL its updates are logged to.
func NewPrimary(eng *engine.Engine, log *wal.WAL) *Primary {
	return &Primary{eng: eng, log: log}
}

// ServeSince answers GET /v1/replicate/since?lsn=N[&max=M][&wait_ms=T]
// [&term=X][&seen_term=S]: records with LSN > N in log order. With
// wait_ms and no records ready it long-polls until one arrives or the
// wait elapses (an empty response is not an error — it tells the follower
// it is caught up at last_lsn). The caller (internal/server) renders the
// returned status/body/error in its structured JSON shapes.
//
// term=X is the term of the record the POLLER holds at LSN N. When this
// log's record at N carries a different term, the two histories diverged
// at or before N — the poller applied records from a primary that was
// later deposed and its suffix was overwritten by a promotion. Streaming
// from N would silently graft the new history onto the old one, so the
// poll is refused with 409 and the poller must re-bootstrap from a
// snapshot. term=0 (or absent) skips the check: the poller either
// predates terms or holds no record at N.
//
// seen_term=S is the newest term the poller has observed anywhere. It
// decides nothing about what is served; it keeps a deposed primary from
// reading the poll as a durability receipt (below). Absent means 0.
func (p *Primary) ServeSince(r *http.Request) (int, any, error) {
	q := r.URL.Query()
	after, err := strconv.ParseUint(q.Get("lsn"), 10, 64)
	if err != nil {
		return http.StatusBadRequest, nil, fmt.Errorf("bad lsn %q", q.Get("lsn"))
	}
	var pollerTerm, seenTerm uint64
	if ts := q.Get("seen_term"); ts != "" {
		seenTerm, err = strconv.ParseUint(ts, 10, 64)
		if err != nil {
			return http.StatusBadRequest, nil, fmt.Errorf("bad seen_term %q", ts)
		}
	}
	if ts := q.Get("term"); ts != "" {
		pollerTerm, err = strconv.ParseUint(ts, 10, 64)
		if err != nil {
			return http.StatusBadRequest, nil, fmt.Errorf("bad term %q", ts)
		}
		if pollerTerm > 0 && after > 0 {
			if have, ok := p.log.TermAt(after); ok && have != pollerTerm {
				return http.StatusConflict, nil, fmt.Errorf(
					"history diverged at LSN %d: this log's record has term %d, yours has term %d; re-bootstrap from a snapshot",
					after, have, pollerTerm)
			}
		}
	}
	// The poll position doubles as a durability receipt: a follower only
	// advances lsn= after the records are fsynced in its local log, so
	// `after` is replicated-and-durable and synchronous writers waiting in
	// WaitConfirmed can be released — but only when this log can vouch for
	// the position. A poller past our durable end, or one that holds a
	// record at `after` from — or has merely seen — a term NEWER than our
	// current one, is following a newer primary and we are the deposed
	// one. Its position vouches for a different history, and a zombie
	// releasing a synchronous ack on the strength of a fenced follower's
	// poll would ack a write nobody will ever replicate. The record term
	// alone is not enough: a follower fresh from the new primary's
	// snapshot holds no record yet and polls with term=0. (The poll itself
	// is still served: the response's stale term is what tells the poller
	// to fence.)
	if term := p.log.Term(); after <= p.log.DurableLSN() && pollerTerm <= term && seenTerm <= term {
		p.noteConfirmed(after)
	}
	max := p.MaxBatch
	if max <= 0 {
		max = DefaultMaxBatch
	}
	if ms := q.Get("max"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 1 {
			return http.StatusBadRequest, nil, fmt.Errorf("bad max %q", ms)
		}
		if n < max {
			max = n
		}
	}
	if ws := q.Get("wait_ms"); ws != "" {
		n, err := strconv.Atoi(ws)
		if err != nil || n < 0 {
			return http.StatusBadRequest, nil, fmt.Errorf("bad wait_ms %q", ws)
		}
		maxWait := p.MaxWait
		if maxWait <= 0 {
			maxWait = DefaultMaxWait
		}
		wait := time.Duration(n) * time.Millisecond
		if wait > maxWait {
			wait = maxWait
		}
		if wait > 0 && p.log.DurableLSN() <= after {
			ctx, cancel := context.WithTimeout(r.Context(), wait)
			p.log.WaitSince(ctx, after)
			cancel()
		}
	}
	// SinceRaw ships the stored payload bytes verbatim — the hot case
	// (an almost-caught-up follower) is served from the log's in-memory
	// tail with no disk read and no decode/re-encode round trip. The byte
	// budget (see DefaultMaxBytes) rides on the record-count cap and is
	// enforced inside the log read, so a lagging follower's poll stops
	// scanning at the budget instead of materializing max records and
	// throwing the overflow away; the kept prefix stays contiguous, so the
	// follower just polls again for the rest.
	maxBytes := p.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	recs, durable, err := p.log.SinceRaw(after, max, maxBytes)
	if err != nil {
		return http.StatusInternalServerError, nil, fmt.Errorf("read log: %w", err)
	}
	resp := api.SinceResponse{
		From:    after,
		LastLSN: durable,
		Term:    p.log.Term(),
		Records: make([]api.ReplicateRecord, len(recs)),
	}
	for i, rec := range recs {
		resp.Records[i] = api.ReplicateRecord{LSN: rec.LSN, Term: rec.Term, Delta: rec.Delta}
	}
	return http.StatusOK, resp, nil
}

// noteConfirmed records that some follower has durably applied through
// lsn, waking WaitConfirmed waiters at or below it.
func (p *Primary) noteConfirmed(lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if lsn <= p.confirmed {
		return
	}
	p.confirmed = lsn
	if p.confirmedCh != nil {
		close(p.confirmedCh)
		p.confirmedCh = nil
	}
}

// Confirmed returns the highest LSN any follower has reported durably
// applied.
func (p *Primary) Confirmed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.confirmed
}

// WaitConfirmed blocks until some follower has reported lsn durably
// applied (true) or ctx ends (false). This is the synchronous-replication
// gate: a primary started with -ack-replicas holds each update's ack here
// so an acked write survives losing the primary — the promoted follower
// already has it.
func (p *Primary) WaitConfirmed(ctx context.Context, lsn uint64) bool {
	for {
		p.mu.Lock()
		if p.confirmed >= lsn {
			p.mu.Unlock()
			return true
		}
		if p.confirmedCh == nil {
			p.confirmedCh = make(chan struct{})
		}
		ch := p.confirmedCh
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			return false
		case <-ch:
		}
	}
}

// ServeSnapshot answers GET /v1/replicate/snapshot with an engine snapshot
// stream — the follower bootstrap source. The save pins one immutable
// epoch, then gates on the WAL until that epoch's LSN is durable before
// streaming a byte: an epoch is visible once its record is sequenced,
// before that record is committed to disk, and a snapshot of such an
// epoch would hand the follower state a crash could make the primary
// forget. The wait commits the record itself if nobody else has.
func (p *Primary) ServeSnapshot(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "application/octet-stream")
	return p.eng.SaveWait(w, p.log.WaitDurable)
}
