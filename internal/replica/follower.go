package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/atomicfile"
	"repro/internal/graph"
	"repro/internal/wal"
)

// Follower keeps a local engine converged with a primary: Bootstrap
// fetches a full snapshot (arriving at the primary's engine state at some
// LSN), then Run streams /v1/replicate/since records and applies them
// through Engine.ApplyUpdateBatchAt — the same epoch-swap machinery the
// primary used, so local reads are lock-free during catch-up and the
// follower at LSN N answers queries byte-identically to the primary at
// LSN N. All primary traffic goes through the typed client package — the
// wire protocol exists in exactly one place (api).
//
// A drained since batch is coalesced into ONE apply: contiguous logged
// deltas concatenate (new-node ids are assigned deterministically, so
// the merged delta is id-for-id the sequence it replaces) and the epoch
// counter advances once per covered record, cutting the epoch churn —
// graph clones, index patches, class re-merges — of catch-up from one
// per record to one per poll while keeping the engine byte-identical to
// a record-at-a-time replica.
//
// With Dir set the follower is also durable and promotable: every batch
// is fsynced into a follower-local WAL BEFORE it is applied, the
// bootstrap snapshot is persisted next to it, Restore rebuilds the
// engine from that local state without touching the primary, and
// Promote seals the local log under a raised term so a Server can start
// accepting writes on it — the failover path when the primary dies.
//
// Terms fence zombies. Every poll carries the term of the follower's
// newest applied record; a primary holding a different record there
// answers 409 (histories diverged → re-bootstrap). Every since response
// carries the serving log's current term; a response from a term OLDER
// than the newest this follower has seen means the server lost its
// authority to a promotion it has not noticed — the follower refuses to
// apply and reports StatusFenced until it reaches a current-term
// primary (Retarget points it at one).
type Follower struct {
	// Workers retunes the bootstrapped engine for this host (the snapshot
	// carries the primary's setting); <= 0 keeps one worker per CPU.
	Workers int
	// PollWait is the long-poll duration requested per since call.
	PollWait time.Duration
	// MaxBatch bounds the records requested per since call.
	MaxBatch int
	// Backoff is the pause after a failed poll before retrying.
	Backoff time.Duration
	// Dir, when non-empty, is the follower's local state directory: the
	// bootstrap snapshot persists to Dir/engine.snap and replicated
	// records fsync into Dir/wal before they apply. Set it before
	// Restore/Bootstrap/Run; empty keeps the follower memory-only (no
	// Restore, no Promote).
	Dir string

	hc  *http.Client
	cmu sync.Mutex // guards c (Retarget swaps it mid-Run)
	c   *client.Client

	eng      atomic.Pointer[semprox.Engine]
	applied  atomic.Uint64 // LSN of the last record applied locally
	target   atomic.Uint64 // primary durable LSN as of the last poll
	polled   atomic.Bool   // at least one successful poll completed
	appTerm  atomic.Uint64 // term of the last record applied locally
	seenTerm atomic.Uint64 // newest term observed anywhere (responses, records)
	fenced   atomic.Bool   // last poll hit a zombie (stale-term) primary

	wmu      sync.Mutex // guards log and promoted
	log      *wal.WAL   // follower-local durable log (nil when Dir == "")
	promoted bool       // Promote handed the log to a server; Close must not close it
}

// NewFollower returns a follower of the primary at baseURL. Call
// Bootstrap (or Run, which bootstraps if needed) before serving reads.
// A nil hc gets a timeout-FREE http.Client, unlike the client package's
// default: a whole-request timeout also bounds reading the response
// body, and a snapshot bootstrap streams an engine of unbounded size —
// a fixed cap would wedge large followers in a bootstrap-retry loop.
// Per-call deadlines come from the contexts Bootstrap and Run pass in.
func NewFollower(baseURL string, hc *http.Client) *Follower {
	if hc == nil {
		hc = &http.Client{}
	}
	f := &Follower{
		hc:       hc,
		PollWait: 10 * time.Second,
		MaxBatch: DefaultMaxBatch,
		Backoff:  500 * time.Millisecond,
	}
	f.setClient(baseURL)
	f.registerGauges()
	return f
}

func (f *Follower) setClient(baseURL string) {
	c := client.New(baseURL, f.hc)
	// The follower is its own retry policy (Backoff between polls);
	// client-level retries would just delay the lag signal.
	c.Retries = 0
	f.cmu.Lock()
	f.c = c
	f.cmu.Unlock()
}

func (f *Follower) client() *client.Client {
	f.cmu.Lock()
	defer f.cmu.Unlock()
	return f.c
}

// Retarget points the follower at a different primary; the next poll
// goes there. Safe to call while Run is polling — the monitor calls it
// when it discovers that a peer (not this node) won a promotion.
func (f *Follower) Retarget(baseURL string) { f.setClient(baseURL) }

// Engine returns the local serving engine (nil before Bootstrap).
func (f *Follower) Engine() *semprox.Engine { return f.eng.Load() }

// snapPath and walDir name the two halves of the local state directory.
func (f *Follower) snapPath() string { return filepath.Join(f.Dir, "engine.snap") }
func (f *Follower) walDir() string   { return filepath.Join(f.Dir, "wal") }

// Restore rebuilds the follower from its local state directory — the
// persisted bootstrap snapshot plus the follower-local WAL — without
// touching the primary. It returns (false, nil) when Dir is unset or
// holds no snapshot (call Bootstrap), and (true, nil) when the follower
// is ready to Run from exactly where it crashed: the replayed engine is
// byte-identical to one that had applied the same records live, because
// replay drives the same ApplyUpdateAt path the live stream does.
func (f *Follower) Restore() (bool, error) {
	if f.Dir == "" {
		return false, nil
	}
	snap, err := os.Open(f.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("replica: restore: %w", err)
	}
	eng, lerr := semprox.LoadEngine(snap)
	snap.Close()
	if lerr != nil {
		return false, fmt.Errorf("replica: restore: %w", lerr)
	}
	eng.SetWorkers(f.Workers)
	log, err := wal.Open(f.walDir(), wal.Options{BaseLSN: eng.LSN()})
	if err != nil {
		return false, fmt.Errorf("replica: restore: %w", err)
	}
	if _, _, err := semprox.ReplayWAL(eng, log); err != nil {
		log.Close()
		return false, fmt.Errorf("replica: restore: %w", err)
	}
	eng.Compact()
	f.installLog(log)
	f.eng.Store(eng)
	f.applied.Store(eng.LSN())
	f.appTerm.Store(log.LastTerm())
	if t := log.Term(); t > f.seenTerm.Load() {
		f.seenTerm.Store(t)
	}
	return true, nil
}

// Bootstrap downloads a snapshot from the primary and installs the
// loaded engine. The snapshot's LSN becomes the stream position: Run
// resumes exactly where the snapshot ends. With Dir set, the snapshot
// is persisted locally (atomically) and a fresh local WAL is created at
// its LSN — any previous local log is discarded, because a bootstrap
// means the old local history is useless (first boot) or diverged
// (zombie suffix). The newest term this follower has seen survives the
// wipe: it is seeded into the fresh log so a later Promote still
// outranks the deposed primary. A primary below that term is refused
// before anything is downloaded or discarded.
func (f *Follower) Bootstrap(ctx context.Context) error {
	// Fencing comes before divergence here too. A deposed primary that
	// keeps taking writes ends up holding a different record at our
	// applied LSN, so its polls answer 409 like a real divergence would
	// — but taking ITS snapshot would trade the newer history we hold
	// for the one a promotion overwrote, and our next poll (term 0, at
	// the snapshot's LSN) would release its synchronous acks.
	if seen := f.seenTerm.Load(); seen > 1 {
		rd, err := f.client().Ready(ctx)
		if err != nil {
			return fmt.Errorf("replica: bootstrap: %w", err)
		}
		if max(rd.Term, 1) < seen {
			f.fenced.Store(true)
			return fmt.Errorf("replica: bootstrap: fenced: primary %s is at term %d but term %d exists — not taking a zombie's snapshot", f.client().BaseURL(), rd.Term, seen)
		}
	}
	repBootstraps.Inc()
	body, err := f.client().ReplicateSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	defer body.Close()
	var eng *semprox.Engine
	if f.Dir != "" {
		if err := os.MkdirAll(f.Dir, 0o755); err != nil {
			return fmt.Errorf("replica: bootstrap: %w", err)
		}
		// Load while persisting: the decoder pulls the stream through a
		// tee into the staged file, and the rename happens only after the
		// load — checksum included — has succeeded, so a stream that does
		// not load never becomes a file Restore could boot from.
		err = atomicfile.WriteWith(f.snapPath(), func(w io.Writer) (lerr error) {
			eng, lerr = semprox.LoadEngine(io.TeeReader(body, w))
			return lerr
		})
	} else {
		eng, err = semprox.LoadEngine(body)
	}
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	eng.SetWorkers(f.Workers)
	if f.Dir != "" {
		if err := os.RemoveAll(f.walDir()); err != nil {
			return fmt.Errorf("replica: bootstrap: %w", err)
		}
		log, err := wal.Open(f.walDir(), wal.Options{BaseLSN: eng.LSN()})
		if err != nil {
			return fmt.Errorf("replica: bootstrap: %w", err)
		}
		if t := f.seenTerm.Load(); t > log.Term() {
			if err := log.SetTerm(t); err != nil {
				log.Close()
				return fmt.Errorf("replica: bootstrap: %w", err)
			}
		}
		f.installLog(log)
	}
	f.eng.Store(eng)
	f.applied.Store(eng.LSN())
	f.appTerm.Store(0) // snapshots carry no term; the first poll skips the history check
	return nil
}

// installLog swaps in a fresh local WAL, closing any previous one.
func (f *Follower) installLog(log *wal.WAL) {
	f.wmu.Lock()
	old := f.log
	f.log = log
	f.wmu.Unlock()
	if old != nil {
		old.Close()
	}
}

func (f *Follower) walRef() *wal.WAL {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.promoted {
		return nil
	}
	return f.log
}

// Promote seals the follower's local log for writing: the current term
// is raised past every term this follower has ever observed (durably,
// sidecar-first) and the log is handed to the caller —
// Server.PromoteFollower, the one caller outside tests, replays its tail
// and starts accepting /v1/update on it. Call only after Run has
// stopped (cancel its context and wait); the returned log now belongs
// to the server, and Close leaves it alone. Requires Dir (a memory-only
// follower has no durable history to promote).
func (f *Follower) Promote() (*wal.WAL, error) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.log == nil {
		return nil, errors.New("replica: promote: no local log (follower started without a state dir)")
	}
	if f.promoted {
		return nil, errors.New("replica: promote: already promoted")
	}
	next := f.log.Term()
	if seen := f.seenTerm.Load(); seen > next {
		next = seen
	}
	if err := f.log.SetTerm(next + 1); err != nil {
		return nil, fmt.Errorf("replica: promote: %w", err)
	}
	f.seenTerm.Store(next + 1)
	f.promoted = true
	repPromotions.Inc()
	return f.log, nil
}

// Close releases the follower's local log (no-op when memory-only or
// already promoted — a promoted log belongs to the server).
func (f *Follower) Close() error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.log == nil || f.promoted {
		f.log = nil
		return nil
	}
	err := f.log.Close()
	f.log = nil
	return err
}

// Run bootstraps (if Restore or Bootstrap was not already called) and
// then streams records until ctx ends, coalescing each drained batch
// into one apply and compacting the accumulated overlays afterwards.
// Transient primary failures (and fencing — polling a deposed primary)
// back off and retry. Divergence — a 409 term mismatch, a stream gap, an
// undecodable record, or a record the local engine rejects — drops
// readiness (so /v1/readyz goes 503 and load balancers stop routing
// here) and re-bootstraps a fresh snapshot from the primary. Run returns
// only on context cancellation.
func (f *Follower) Run(ctx context.Context) error {
	if f.Engine() == nil {
		if err := f.Bootstrap(ctx); err != nil {
			return err
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		applied, err := f.pollOnce(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var app *applyError
			if errors.As(err, &app) {
				// The local engine can never converge from here; only a
				// fresh snapshot can. Stop reporting ready until a clean
				// poll completes after re-bootstrap. This cannot loop on
				// one record: a record the primary itself rejected after
				// logging is recorded as a skip there (Engine.AdvanceLSN),
				// so the primary's snapshot LSN is already beyond it and
				// the fresh bootstrap resumes past the record.
				f.polled.Store(false)
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(f.Backoff):
				}
				if berr := f.Bootstrap(ctx); berr != nil && ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(f.Backoff):
			}
			continue
		}
		if applied > 0 {
			f.Engine().Compact()
		}
	}
}

// applyError marks a record the local engine rejected — divergence, not a
// transient failure.
type applyError struct{ err error }

func (e *applyError) Error() string { return e.err.Error() }
func (e *applyError) Unwrap() error { return e.err }

// pollOnce issues one since request through the typed client, coalesces
// the contiguous records it returned into one delta, fsyncs them into
// the local WAL (durable BEFORE visible — an LSN this follower reports
// in its next poll, and so may release a synchronously-replicated ack
// on the primary, must survive this follower crashing), and applies
// them in a single epoch swap (see Engine.ApplyUpdateBatchAt),
// returning how many records were applied.
func (f *Follower) pollOnce(ctx context.Context) (int, error) {
	repPolls.Inc()
	after := f.applied.Load()
	afterTerm := uint64(0)
	if after > 0 {
		afterTerm = f.appTerm.Load()
	}
	// Until one poll has completed cleanly — after boot and after every
	// re-bootstrap — ask without long-polling: readiness needs only the
	// primary's durable LSN, and an idle primary would otherwise hold
	// that first answer, and so /v1/readyz, for the whole PollWait.
	wait := f.PollWait
	if !f.polled.Load() {
		wait = 0
	}
	sr, err := f.client().ReplicateSince(ctx, after, afterTerm, f.seenTerm.Load(), f.MaxBatch, wait)
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) && apiErr.Code == api.CodeTermMismatch {
			// The primary holds a DIFFERENT record at our applied LSN:
			// our suffix came from a deposed primary and was overwritten
			// by a promotion. Only a fresh snapshot reconverges.
			return 0, &applyError{fmt.Errorf("replica: poll: %w", err)}
		}
		return 0, fmt.Errorf("replica: poll: %w", err)
	}
	// Fencing comes FIRST, before any divergence check: a response from a
	// term older than one we have seen is a zombie primary — still
	// answering, unaware it was deposed. Nothing it says is actionable
	// (not even "you are ahead of me", which from a zombie is expected,
	// not divergence); applying its records would fork our history. Stay
	// fenced until a current-term primary answers — the monitor's
	// Retarget, or the zombie rejoining as a follower of the new primary,
	// clears it.
	srvTerm := sr.Term
	if srvTerm == 0 {
		srvTerm = 1 // a pre-term primary is term 1, same as its records
	}
	if seen := f.seenTerm.Load(); srvTerm < seen {
		f.fenced.Store(true)
		return 0, fmt.Errorf("replica: poll: fenced: primary %s answers at term %d but term %d exists — polling a zombie", f.client().BaseURL(), srvTerm, seen)
	}
	if srvTerm > f.seenTerm.Load() {
		f.seenTerm.Store(srvTerm)
	}
	if sr.LastLSN < after {
		// A CURRENT-term primary whose durable log ends behind what we
		// applied: our suffix never reached it (we replicated it from a
		// log that died with the old primary) — that suffix is not part
		// of history. Discard local state and re-bootstrap.
		return 0, &applyError{fmt.Errorf("replica: primary at term %d ends at LSN %d but we applied %d: our suffix lost the promotion", srvTerm, sr.LastLSN, after)}
	}
	// Coalesce the batch. Records at or below the applied position are
	// duplicate deliveries after a retry; past that the LSNs must be
	// contiguous — a gap means the primary truncated its log past this
	// follower and records in between are gone, so applying anything
	// later would silently diverge. Each record is validated EXACTLY as
	// a one-at-a-time apply would validate it (known types, edge
	// endpoints within the node count as of ITS position in the stream):
	// a record the primary logged but rejected-and-skipped must fail here
	// too, not be absorbed by a merged delta whose later records happen
	// to bring its out-of-range endpoints into range. Terms must never
	// decrease along the stream (the serving log enforces that on its own
	// records, so a violation here means a broken or lying server).
	// The contiguous valid prefix before a gap / undecodable / invalid
	// record still applies; the divergence error surfaces after.
	eng := f.Engine()
	var d graph.Delta
	var raws []wal.RawRecord
	nodes := eng.Graph().NumNodes()
	last, count := after, 0
	lastTerm, prevTerm := f.appTerm.Load(), f.appTerm.Load()
	var diverged error
	for _, rec := range sr.Records {
		if rec.LSN <= last {
			continue // duplicate delivery after a retry
		}
		if rec.LSN != last+1 {
			diverged = &applyError{fmt.Errorf("replica: stream gap: record %d after %d (primary log truncated past us)", rec.LSN, last)}
			break
		}
		recTerm := rec.Term
		if recTerm == 0 {
			recTerm = 1
		}
		if recTerm < prevTerm || recTerm > srvTerm {
			diverged = &applyError{fmt.Errorf("replica: record %d term %d outside [%d, %d]: stream breaks term order", rec.LSN, recTerm, prevTerm, srvTerm)}
			break
		}
		rd, err := graph.DecodeDelta(rec.Delta)
		if err != nil {
			diverged = &applyError{fmt.Errorf("replica: record %d: %w", rec.LSN, err)}
			break
		}
		if err := applicable(eng, nodes, rd); err != nil {
			diverged = &applyError{fmt.Errorf("replica: apply record %d: %w", rec.LSN, err)}
			break
		}
		d.Nodes = append(d.Nodes, rd.Nodes...)
		d.Edges = append(d.Edges, rd.Edges...)
		raws = append(raws, wal.RawRecord{LSN: rec.LSN, Term: recTerm, Delta: rec.Delta})
		nodes += len(rd.Nodes)
		last, prevTerm, lastTerm = rec.LSN, recTerm, recTerm
		count++
	}
	applied := 0
	if count > 0 {
		if log := f.walRef(); log != nil {
			// Durable before visible: the batch fsyncs into the local log
			// before the engine applies it. A crash between the two replays
			// the batch from the local log (Restore); the reverse order
			// could advance our reported position past records a crash
			// erases — and the primary may have released an acked write on
			// that report.
			if err := log.AppendRawBatch(raws); err != nil {
				return 0, fmt.Errorf("replica: local log: %w", err)
			}
		}
		if _, err := eng.ApplyUpdateBatchAt(d, last, count); err != nil {
			return 0, &applyError{fmt.Errorf("replica: apply records %d..%d: %w", after+1, last, err)}
		}
		f.applied.Store(last)
		f.appTerm.Store(lastTerm)
		repApplied.Add(uint64(count))
		applied = count
	}
	if diverged != nil {
		return applied, diverged
	}
	if sr.LastLSN > f.target.Load() {
		f.target.Store(sr.LastLSN)
	}
	f.polled.Store(true)
	f.fenced.Store(false)
	return applied, nil
}

// applicable reports whether d would be accepted by a graph currently
// holding `nodes` nodes — graph.Apply's own acceptance predicate
// (graph.ValidateApply), evaluated at the record's position in the
// stream rather than against the merged batch, so a record the primary
// rejected is never absorbed by coalescing.
func applicable(eng *semprox.Engine, nodes int, d graph.Delta) error {
	return graph.ValidateApply(eng.Graph().Types(), nodes, d)
}

// FollowerStatus is one consistent read of a follower's replication
// position: the LSN applied locally, the primary's durable LSN as of
// the last successful poll, the lag between them (clamped at 0), the
// newest term observed, and the readiness verdicts. Callers needing
// several of these values must take them from ONE Status call; separate
// calls read the atomics independently and can disagree.
type FollowerStatus struct {
	Applied    uint64
	PrimaryLSN uint64
	Lag        uint64
	Term       uint64
	Ready      bool // bootstrapped, polled cleanly, zero lag, not fenced
	Fenced     bool // last poll hit a deposed (stale-term) primary
}

// Status reports the follower's replication position.
func (f *Follower) Status() FollowerStatus {
	st := FollowerStatus{
		Applied:    f.applied.Load(),
		PrimaryLSN: f.target.Load(),
		Term:       f.seenTerm.Load(),
		Fenced:     f.fenced.Load(),
	}
	if st.PrimaryLSN > st.Applied {
		st.Lag = st.PrimaryLSN - st.Applied
	}
	st.Ready = f.Engine() != nil && f.polled.Load() && st.Lag == 0 && !st.Fenced
	return st
}

// Lag returns primaryLSN - appliedLSN as of the last poll (0 when caught
// up or not yet polled).
func (f *Follower) Lag() uint64 { return f.Status().Lag }

// PrimaryURL returns the primary base URL the follower replicates from.
func (f *Follower) PrimaryURL() string { return f.client().BaseURL() }

// ValidPrimaryURL rejects -follow values that cannot name a primary;
// cmd/semproxd validates the flag before bootstrapping.
func ValidPrimaryURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("replica: primary URL %q must be http or https", s)
	}
	if u.Host == "" {
		return fmt.Errorf("replica: primary URL %q has no host", s)
	}
	return nil
}
