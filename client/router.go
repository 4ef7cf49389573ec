package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
)

// DefaultProbeInterval is how often Run re-probes every replica's
// readiness.
const DefaultProbeInterval = 500 * time.Millisecond

// Event types reported through Router.OnEvent.
const (
	// EventAdmit: a follower (re-)entered the read rotation.
	EventAdmit = "admit"
	// EventEject: a follower left the read rotation (failed read, failed
	// probe, lag, fencing, or a stale term).
	EventEject = "eject"
	// EventPrimaryChange: the router resolved a different backend as the
	// primary — a promotion happened (or the old primary came back).
	EventPrimaryChange = "primary_change"
)

// Event is one routing transition, delivered to OnEvent.
type Event struct {
	Type   string // EventAdmit, EventEject, EventPrimaryChange
	URL    string // the backend the event is about
	Term   uint64 // the backend's term at the observation (0 if unknown)
	Reason string // human-readable cause
}

// Router is the replica-aware serving strategy over one primary and N
// follower base URLs. It polls /v1/readyz on EVERY backend to maintain
// (a) the live set of caught-up followers and (b) which backend is the
// current primary: each probe trusts the highest-term backend reporting
// the primary role, so when a follower is promoted after the configured
// primary dies, writes re-route to it without restarting the router.
// Reads (Query, QueryBatch, Proximity) spread round-robin across the
// live followers with failover — a follower that errors is ejected from
// rotation on the spot and the request moves to the next live follower,
// then to the resolved primary — and writes (Update) plus authoritative
// reads (Stats) pin to the resolved primary. An ejected or lagging
// follower re-enters rotation at the next successful readiness probe; a
// follower reporting a term older than the newest seen stays out (it is
// still following a deposed primary).
//
// With zero followers (or none caught up) every request goes to the
// primary, so a Router over a single server degrades to a plain Client.
//
// Safe for concurrent use. Start Run in a goroutine for continuous
// probing, or call Probe directly for deterministic control (tests,
// benchmarks, one-shot tools).
type Router struct {
	clients []*Client // [0] = configured primary, [1+i] = followers[i]

	// ProbeInterval is the pause between Run's readiness sweeps.
	ProbeInterval time.Duration

	// OnEvent, when set (before Run/Probe), observes routing transitions:
	// follower admissions/ejections and primary changes. Called
	// synchronously from Probe and the read failover path without any
	// router lock held; keep it fast and do not call back into the
	// router from it.
	OnEvent func(Event)

	mu      sync.RWMutex
	cur     int      // index into clients of the resolved primary
	maxTerm uint64   // newest term observed on any backend
	live    []bool   // live[i]: followers[i] is caught up and in rotation
	gen     []uint64 // gen[i]: bumped by each eject of followers[i]; lets a
	// probe detect an ejection that happened after its readiness sample
	// was taken, so a stale "ready" never resurrects a just-dead replica

	rr     atomic.Uint64   // round-robin cursor over the live set
	served []atomic.Uint64 // reads served per backend; [0]=primary, [1+i]=followers[i]
}

// NewRouter builds a router over the primary at primaryURL and the given
// follower base URLs. A nil hc gets one shared http.Client with
// DefaultTimeout. Followers start OUT of rotation (nothing is known
// about their lag yet): call Probe once — or start Run — before
// expecting reads to spread.
func NewRouter(primaryURL string, followerURLs []string, hc *http.Client) *Router {
	if hc == nil {
		hc = &http.Client{Timeout: DefaultTimeout}
	}
	r := &Router{
		ProbeInterval: DefaultProbeInterval,
		live:          make([]bool, len(followerURLs)),
		gen:           make([]uint64, len(followerURLs)),
		served:        make([]atomic.Uint64, 1+len(followerURLs)),
	}
	// Per-backend retries are disabled: the router IS the retry policy.
	// A failed read fails over to the next replica immediately instead of
	// hammering the same dead one through the backoff loop.
	for _, u := range append([]string{primaryURL}, followerURLs...) {
		c := New(u, hc)
		c.Retries = 0
		r.clients = append(r.clients, c)
	}
	return r
}

// Primary returns the client of the CURRENT resolved primary (writes,
// authoritative reads) — the configured one until a probe observes a
// promotion.
func (r *Router) Primary() *Client {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.clients[r.cur]
}

// Followers returns the follower clients in rotation order.
func (r *Router) Followers() []*Client { return r.clients[1:] }

// Run probes every backend's readiness each ProbeInterval until ctx
// ends, keeping the live set and the resolved primary fresh: lagging or
// dead followers leave rotation, caught-up ones (re-)enter, and a
// promoted follower takes over the write role. Returns ctx.Err().
func (r *Router) Run(ctx context.Context) error {
	for {
		r.Probe(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(r.ProbeInterval):
		}
	}
}

// normTerm maps the wire encoding (0 = pre-term server) to term 1.
func normTerm(t uint64) uint64 {
	if t == 0 {
		return 1
	}
	return t
}

// Probe polls /v1/readyz on every backend concurrently, resolves the
// primary, and installs the resulting live set, returning how many
// followers are in rotation. A follower is live when its probe succeeds
// and reports StatusReady at the newest observed term — a ready
// follower at an OLDER term is still tracking a deposed primary and
// would serve a forked history. A backend reporting the primary role is
// trusted as THE primary if its term is the highest among such claims;
// absent any claim (the primary just died, nobody promoted yet) the
// previous resolution stands, so in-flight writes keep a target.
// A follower stays out of rotation if a read ejected it while this
// probe's sample was in flight: that ejection is newer information than
// the sample (a stale "ready" must not resurrect a replica that just
// died).
func (r *Router) Probe(ctx context.Context) int {
	r.mu.RLock()
	before := append([]uint64(nil), r.gen...)
	r.mu.RUnlock()
	type sample struct {
		resp api.ReadyResponse
		err  error
	}
	samples := make([]sample, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			samples[i].resp, samples[i].err = c.Ready(ctx)
		}(i, c)
	}
	wg.Wait()

	var events []Event
	n := 0
	r.mu.Lock()
	for _, s := range samples {
		if s.err == nil && normTerm(s.resp.Term) > r.maxTerm {
			r.maxTerm = normTerm(s.resp.Term)
		}
	}
	// Resolve the primary: highest-term backend claiming the role and
	// able to take writes (a wal_failed primary claims the role but
	// can't).
	best, bestTerm := -1, uint64(0)
	for i, s := range samples {
		if s.err != nil || s.resp.Role != api.RolePrimary || !s.resp.Ready() {
			continue
		}
		if t := normTerm(s.resp.Term); best < 0 || t > bestTerm {
			best, bestTerm = i, t
		}
	}
	if best >= 0 && best != r.cur {
		r.cur = best
		events = append(events, Event{
			Type: EventPrimaryChange, URL: r.clients[best].BaseURL(), Term: bestTerm,
			Reason: fmt.Sprintf("backend reports primary role at term %d", bestTerm),
		})
	}
	for i := range r.live {
		s := samples[1+i]
		ok := s.err == nil && s.resp.Ready() && s.resp.Role == api.RoleFollower &&
			normTerm(s.resp.Term) >= r.maxTerm
		if r.gen[i] != before[i] {
			ok = false // ejected mid-sweep; this sample predates the death
		}
		if ok != r.live[i] {
			ev := Event{URL: r.clients[1+i].BaseURL(), Term: normTerm(s.resp.Term)}
			if ok {
				ev.Type, ev.Reason = EventAdmit, "probe reports ready at current term"
			} else {
				ev.Type, ev.Reason = EventEject, ejectReason(s.err, s.resp, r.maxTerm)
			}
			events = append(events, ev)
		}
		r.live[i] = ok
		if ok {
			n++
		}
	}
	r.mu.Unlock()
	r.emit(events)
	return n
}

// ejectReason names why a probe sample takes a follower out of rotation.
func ejectReason(err error, resp api.ReadyResponse, maxTerm uint64) string {
	switch {
	case err != nil:
		return fmt.Sprintf("probe failed: %v", err)
	case resp.Role != api.RoleFollower:
		return fmt.Sprintf("role is %s", resp.Role)
	case normTerm(resp.Term) < maxTerm:
		return fmt.Sprintf("stale term %d (newest is %d)", normTerm(resp.Term), maxTerm)
	default:
		return fmt.Sprintf("status %s (lag %d)", resp.Status, resp.Lag)
	}
}

func (r *Router) emit(events []Event) {
	if r.OnEvent == nil {
		return
	}
	for _, ev := range events {
		r.OnEvent(ev)
	}
}

// Live returns the indices of the followers currently in rotation.
func (r *Router) Live() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var idx []int
	for i, ok := range r.live {
		if ok {
			idx = append(idx, i)
		}
	}
	return idx
}

// eject drops follower i from rotation until a probe whose readiness
// sample postdates this call re-admits it.
func (r *Router) eject(i int, cause error) {
	r.mu.Lock()
	r.live[i] = false
	r.gen[i]++
	r.mu.Unlock()
	r.emit([]Event{{
		Type: EventEject, URL: r.clients[1+i].BaseURL(),
		Reason: fmt.Sprintf("read failed: %v", cause),
	}})
}

// Counts reports how many reads each backend has served, keyed by base
// URL — the primary included. Useful for verifying spread in tests,
// benchmarks and smoke scripts.
func (r *Router) Counts() map[string]uint64 {
	out := make(map[string]uint64, len(r.clients))
	for i, c := range r.clients {
		out[c.BaseURL()] += r.served[i].Load()
	}
	return out
}

// Query answers one ranked query through the read rotation.
func (r *Router) Query(ctx context.Context, class, query string, k int) (api.QueryResponse, error) {
	var out api.QueryResponse
	err := r.read(ctx, func(c *Client) error {
		var err error
		out, err = c.Query(ctx, class, query, k)
		return err
	})
	return out, err
}

// QueryBatch answers a batch of queries through the read rotation.
func (r *Router) QueryBatch(ctx context.Context, class string, queries []string, k int) (api.QueryResponse, error) {
	var out api.QueryResponse
	// The caller's mistakes are rejected before the rotation is touched:
	// Client.QueryBatch fails these locally with a plain error, which the
	// failover path would misread as a per-replica transport failure and
	// eject every live follower over one malformed call.
	if len(queries) == 0 {
		return out, fmt.Errorf("client: empty query batch")
	}
	if len(queries) > api.MaxBatch {
		return out, fmt.Errorf("client: batch of %d queries exceeds limit %d", len(queries), api.MaxBatch)
	}
	err := r.read(ctx, func(c *Client) error {
		var err error
		out, err = c.QueryBatch(ctx, class, queries, k)
		return err
	})
	return out, err
}

// Proximity scores one pair through the read rotation.
func (r *Router) Proximity(ctx context.Context, class, x, y string) (api.ProximityResponse, error) {
	var out api.ProximityResponse
	err := r.read(ctx, func(c *Client) error {
		var err error
		out, err = c.Proximity(ctx, class, x, y)
		return err
	})
	return out, err
}

// Update pins to the resolved primary. If the attempt fails in a way
// that proves the write did NOT happen — the backend is unreachable, or
// it answered 503 not_primary (it is a follower; followers refuse
// before applying) — the router re-probes, and if that resolves a
// DIFFERENT primary (a promotion it hadn't noticed), retries exactly
// once there. Ambiguous failures (a 5xx from a backend that may have
// applied the update) are never retried: an update is not idempotent.
func (r *Router) Update(ctx context.Context, req api.UpdateRequest) (api.UpdateResponse, error) {
	c := r.Primary()
	out, err := c.Update(ctx, req)
	if err == nil || !writeSurelyFailed(err) || ctx.Err() != nil {
		return out, err
	}
	r.Probe(ctx)
	if c2 := r.Primary(); c2 != c {
		return c2.Update(ctx, req)
	}
	return out, err
}

// writeSurelyFailed reports whether an Update error proves the update
// was not applied anywhere — the only condition under which retrying it
// elsewhere cannot double-apply.
func writeSurelyFailed(err error) bool {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return apiErr.Code == api.CodeNotPrimary
	}
	// Transport-level failure: the request never got a response. A
	// connection refused / reset before the response proves nothing was
	// acked; the pre-response failure modes where the server DID apply
	// (it crashed mid-handling) also killed that server's unacked state.
	return true
}

// Stats pins to the resolved primary: per-replica stats differ by
// catch-up state, and callers of a router want the authoritative
// position. Use Followers()[i].Stats for a specific replica.
func (r *Router) Stats(ctx context.Context) (api.StatsResponse, error) {
	return r.Primary().Stats(ctx)
}

// read runs one read against the rotation: each backend ReadTargets lists,
// in its order, each outcome reported through ReportRead. A follower
// failing with a 5xx or a transport error is ejected from rotation
// immediately (the next probe re-admits it once caught up) and the next
// backend is tried; a 4xx — the request itself is wrong — returns straight
// to the caller, because every replica would refuse it identically.
func (r *Router) read(ctx context.Context, call func(*Client) error) error {
	targets := r.ReadTargets(len(r.clients))
	var lastErr error
	for i, c := range targets {
		if i > 0 && i == len(targets)-1 {
			// The fallback is the primary resolved now, not when the list
			// was made: a promotion while the followers were tried moves it.
			if p := r.Primary(); !slices.Contains(targets[:i], p) {
				c = p
			}
		}
		err := call(c)
		if err != nil && ctx.Err() != nil {
			return err // cancelled: says nothing about the backend
		}
		r.ReportRead(c, err)
		if err == nil || !failedOver(err) {
			return err
		}
		if i == len(targets)-1 && lastErr != nil {
			return fmt.Errorf("%w (followers also failed: %v)", err, lastErr)
		}
		lastErr = err
	}
	return lastErr
}

// ReadTargets returns up to max distinct backends for one read, in the
// order the rotation would try them: the live followers starting at the
// round-robin cursor (advanced once per call, so successive calls
// spread), then the resolved primary as the final fallback — the
// candidate order read walks, exposed for callers that drive the HTTP
// exchange themselves (the semproxy edge tier forwards raw bodies and
// hedges stragglers, which the closure-based read path can't express).
// With no live followers the result is just the primary. Callers report
// each attempt's outcome through ReportRead so ejections and serve
// counts keep working.
func (r *Router) ReadTargets(max int) []*Client {
	if max <= 0 {
		return nil
	}
	idx := r.Live()
	out := make([]*Client, 0, len(idx)+1)
	if len(idx) > 0 {
		start := int((r.rr.Add(1) - 1) % uint64(len(idx)))
		for a := 0; a < len(idx) && len(out) < max; a++ {
			out = append(out, r.clients[1+idx[(start+a)%len(idx)]])
		}
	}
	// The resolved primary can BE one of the live followers mid-promotion
	// (cur moves before the probe flips its role); don't list it twice.
	if p := r.Primary(); len(out) < max && !slices.Contains(out, p) {
		out = append(out, p)
	}
	return out
}

// ReportRead records the outcome of a read the caller performed itself
// against a backend obtained from ReadTargets: success bumps the
// backend's serve count (Counts), and a failover-grade failure (5xx or
// transport) ejects a follower from rotation exactly as the built-in
// read path would — the resolved primary is never ejected, even when it
// is a promoted follower (it is the fallback, and probes own the
// primary's fate), and 4xx outcomes are the request's
// fault, not the replica's. Do NOT report attempts the caller cancelled
// itself (a hedge loser): its context error is indistinguishable from a
// dead backend and would eject a healthy replica.
func (r *Router) ReportRead(c *Client, err error) {
	for i, rc := range r.clients {
		if rc != c {
			continue
		}
		if err == nil {
			r.served[i].Add(1)
		} else if i > 0 && failedOver(err) && c != r.Primary() {
			r.eject(i-1, err)
		}
		return
	}
}

// failedOver reports whether an error should move the request to the
// next replica: transport failures and 5xx do, client mistakes (4xx)
// do not.
func failedOver(err error) bool {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500
	}
	return true // transport-level failure
}
