// Package proxy is the semproxy edge tier: the full /v1 surface of an
// engine server, served by forwarding to a primary + followers through
// the replica-aware client.Router — so ANY http caller (not just Go
// programs embedding the client) gets failover, read spreading, and two
// perf layers the backends alone can't provide:
//
//   - Hedged reads. A read still unanswered after a latency budget — the
//     serving backend's own trailing p95, estimated per backend from a
//     streaming histogram (internal/loadstats) — is duplicated to the
//     next live replica and the first non-error answer wins; the loser
//     is cancelled through its request context. Writes are never hedged
//     (duplicating a non-idempotent update could double-apply), and
//     hedges are capped to a fraction of forwarded reads so a uniformly
//     slow fleet cannot double its own load. This is the tail-at-scale
//     cut: it pays one duplicate request in the slowest ~5% of reads to
//     move p99 toward p50.
//
//   - An epoch-keyed response cache. Query, batch-query and proximity
//     responses are cached in a bounded LRU keyed by the exact request
//     (method, canonical path, query string, body) under the engine
//     epoch that computed them — which every backend stamps on read
//     responses (api.HeaderEpoch) from the same pinned engine view that
//     produced the body. An epoch bump (observed from update responses
//     through the proxy, the stats poll, or any read response) flushes
//     the cache, so stale entries are unreachable by construction: no
//     TTLs, no invalidation races, and cached bytes are provably
//     identical to fresh ones (see TestCacheMatchesFreshUnderUpdates).
//
// The proxy holds no data: /v1/stats and /v1/update forward (typed) to
// the resolved primary — stats gaining the proxy's own counters as the
// api.ProxyStats extension — the replication endpoints stream through
// untouched, and /v1/readyz answers for the proxy itself (role "proxy").
package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/wire"
)

// HeaderCache marks proxy read responses as served from the cache
// ("hit") or forwarded to a backend ("miss") — transport metadata for
// smokes and debugging; bodies are identical either way.
const HeaderCache = "X-Semprox-Cache"

// maxReadTargets bounds the candidate backends one read will consider
// (first attempt + failovers + at most one hedge).
const maxReadTargets = 8

// hedging is the hedge tuning. Every proxy runs defaultHedging; tests in
// this package set other values on the Proxy before serving.
type hedging struct {
	// capPct caps hedges at this percentage of forwarded reads: the
	// hedger may only ever have issued fewer duplicate requests than
	// capPct% of the reads it forwarded, so hedging bounds its own added
	// load even when every backend is slow.
	capPct int
	// budget is the latency budget before a backend's own p95 estimate
	// exists.
	budget time.Duration
	// min and max clamp the per-backend p95 estimate: min keeps a fast
	// backend from hedging micro-jitter, max bounds the wait before a
	// hedge fires however slow the estimate got.
	min, max time.Duration
}

var defaultHedging = hedging{capPct: 10, budget: 10 * time.Millisecond, min: time.Millisecond, max: 100 * time.Millisecond}

// Options configures a Proxy.
type Options struct {
	// CacheEntries bounds the response cache (entries); <= 0 disables
	// caching entirely.
	CacheEntries int
	// Hedge enables hedged reads: at most 10% of forwarded reads, each
	// after its backend's trailing p95 clamped to [1ms, 100ms] (10ms
	// before the backend has answered).
	Hedge bool
}

// Proxy is the edge-tier handler. Create with New; safe for concurrent
// use.
type Proxy struct {
	router *client.Router
	opts   Options
	hedge  hedging
	hc     *http.Client // forwarded reads (bounded timeout)
	raw    *http.Client // replication passthrough (long-poll + snapshot streams)
	mux    *http.ServeMux
	cache  *cache
	// maxResponse bounds a forwarded read's response body:
	// wire.MaxResponseBytes, lowered by tests.
	maxResponse int64

	// reg is this proxy's own metric registry — the single source of
	// truth for the edge counters: api.ProxyStats (the /v1/stats
	// extension) is DERIVED from these handles, and /metrics renders the
	// union of this registry and the process default, so both views can
	// never drift. Per-instance (not Default) because the hedge cap math
	// is per-proxy and test stacks run several proxies in one process.
	reg *obs.Registry
	// wrap is mux behind the obs middleware (tracing, metrics, request
	// log). Rebuilt by SetRequestLog — call that before serving.
	wrap http.Handler

	emu  sync.Mutex
	ests map[string]*estimator // per-backend latency, keyed by base URL

	reads           *obs.Counter // reads forwarded to backends (cache hits excluded)
	hedgesIssued    *obs.Counter
	hedgesWon       *obs.Counter
	hedgesCancelled *obs.Counter
}

// New builds the proxy over a router. The router's probe loop (Run) is
// the caller's to start — the proxy only consumes its live set.
func New(r *client.Router, opts Options) *Proxy {
	// Not http.DefaultTransport: its 2 idle conns per host would make an
	// edge tier under load re-handshake almost every forwarded read.
	hc := &http.Client{
		Timeout: client.DefaultTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 512,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	reg := obs.NewRegistry()
	p := &Proxy{
		router: r,
		opts:   opts,
		hedge:  defaultHedging,
		hc:     hc,
		raw:    &http.Client{Transport: hc.Transport},
		mux:    http.NewServeMux(),
		cache:  newCache(opts.CacheEntries, reg),
		reg:    reg,
		ests:   make(map[string]*estimator),

		maxResponse: wire.MaxResponseBytes,

		reads: reg.Counter("semprox_proxy_reads_total",
			"Reads forwarded to backends (cache hits excluded)."),
		hedgesIssued:    reg.Counter(metricHedges, helpHedges, obs.L("outcome", "issued")),
		hedgesWon:       reg.Counter(metricHedges, helpHedges, obs.L("outcome", "won")),
		hedgesCancelled: reg.Counter(metricHedges, helpHedges, obs.L("outcome", "cancelled")),
	}
	for path, h := range map[string]http.HandlerFunc{
		api.PathHealthz:           p.handlePlainRead,
		api.PathClasses:           p.handlePlainRead,
		api.PathQuery:             p.handleCachedRead,
		api.PathProximity:         p.handleCachedRead,
		api.PathUpdate:            p.handleUpdate,
		api.PathStats:             p.handleStats,
		api.PathReadyz:            p.handleReadyz,
		api.PathReplicateSince:    p.handleReplicate,
		api.PathReplicateSnapshot: p.handleReplicate,
	} {
		p.mux.HandleFunc(path, h)
	}
	p.mux.HandleFunc("/", wire.NotFound)
	p.mux.Handle(wire.MetricsPath, obs.Handler(p.reg, obs.Default()))
	// Routing transitions count on the proxy registry; an OnEvent the
	// caller already installed keeps firing after ours.
	prev := r.OnEvent
	r.OnEvent = func(ev client.Event) {
		reg.Counter("semprox_router_events_total",
			"Routing transitions observed (admit, eject, primary_change).",
			obs.L("type", ev.Type)).Inc()
		if prev != nil {
			prev(ev)
		}
	}
	reg.RegisterGaugeFunc("semprox_router_live_followers",
		"Followers currently in the read rotation.",
		func() float64 { return float64(len(r.Live())) })
	p.buildWrap(nil, 0)
	return p
}

// Hedge and cache family names, shared between New and the cache.
const (
	metricHedges = "semprox_proxy_hedges_total"
	helpHedges   = "Hedged read outcomes: issued (duplicate launched), won (hedge answered first), cancelled (original answered first)."

	metricCacheLookups = "semprox_proxy_cache_lookups_total"
	helpCacheLookups   = "Response cache lookups at the current epoch, by result."
)

// buildWrap (re)wraps the mux with the obs middleware.
func (p *Proxy) buildWrap(logger *slog.Logger, slow time.Duration) {
	p.wrap = obs.WrapHTTP(p.mux, obs.HTTPOptions{
		Registry:      p.reg,
		Component:     "proxy",
		Logger:        logger,
		SlowThreshold: slow,
		PathLabel:     wire.PathLabel,
		CacheHeader:   HeaderCache,
	})
}

// SetRequestLog enables one structured log line per request on logger —
// endpoint, status, latency, trace ID, epoch, cache disposition, backend
// and hedge outcome — escalated to Warn when a request takes at least
// slow (0 never escalates). Call before serving.
func (p *Proxy) SetRequestLog(logger *slog.Logger, slow time.Duration) {
	p.buildWrap(logger, slow)
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.wrap.ServeHTTP(w, r) }

// AdvanceEpoch feeds the cache an externally observed serving epoch
// (cmd/semproxy's stats poll); newer epochs flush the cache.
func (p *Proxy) AdvanceEpoch(epoch uint64) { p.cache.advance(epoch) }

// Counters snapshots the proxy's observability block — read straight off
// the metric registry, so the ProxyStats extension on /v1/stats and the
// /metrics exposition are two renderings of the same handles.
func (p *Proxy) Counters() api.ProxyStats {
	cc := p.cache.counters()
	return api.ProxyStats{
		Reads:           p.reads.Value(),
		HedgesIssued:    p.hedgesIssued.Value(),
		HedgesWon:       p.hedgesWon.Value(),
		HedgesCancelled: p.hedgesCancelled.Value(),
		CacheHits:       cc.hits,
		CacheMisses:     cc.misses,
		CacheEvictions:  cc.evicts,
		CacheEntries:    cc.entries,
		CacheBytes:      cc.bytes,
		EpochFlushes:    cc.flushes,
		Epoch:           cc.epoch,
	}
}

// estimatorFor returns the latency estimator of one backend.
func (p *Proxy) estimatorFor(c *client.Client) *estimator {
	p.emu.Lock()
	defer p.emu.Unlock()
	e := p.ests[c.BaseURL()]
	if e == nil {
		e = newEstimator()
		p.ests[c.BaseURL()] = e
	}
	return e
}

// budgetFor returns the hedge budget against one backend: its trailing
// p95 clamped to [hedge.min, hedge.max], or hedge.budget before any
// sample exists.
func (p *Proxy) budgetFor(c *client.Client) time.Duration {
	b := p.estimatorFor(c).value()
	if b == 0 {
		b = p.hedge.budget
	}
	return min(max(b, p.hedge.min), p.hedge.max)
}

// hedgeAllowed enforces the cap: a hedge may launch only while the
// issued count stays under hedge.capPct% of forwarded reads.
func (p *Proxy) hedgeAllowed() bool {
	return (p.hedgesIssued.Value()+1)*100 <= uint64(p.hedge.capPct)*p.reads.Value()
}

// result is one backend attempt's outcome.
type result struct {
	c       *client.Client
	status  int
	header  http.Header
	body    []byte
	err     error
	latency time.Duration
	hedged  bool
}

// attempt performs one raw forwarded read against one backend, buffering
// the response body so the winner can be replayed to the caller (and
// cached) byte-for-byte.
func (p *Proxy) attempt(ctx context.Context, c *client.Client, method, path, rawQuery string, body []byte) result {
	u := c.BaseURL() + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return result{c: c, err: err}
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace := obs.TraceID(ctx); trace != "" {
		req.Header.Set(api.HeaderTrace, trace)
	}
	start := time.Now()
	resp, err := p.hc.Do(req)
	if err != nil {
		return result{c: c, err: err}
	}
	defer resp.Body.Close()
	b, err := readResponse(resp, p.maxResponse)
	if err != nil {
		return result{c: c, err: fmt.Errorf("reading %s response: %w", u, err)}
	}
	return result{c: c, status: resp.StatusCode, header: resp.Header, body: b, latency: time.Since(start)}
}

// readResponse buffers a response body of at most limit bytes. A longer
// one is an error, so the read fails over as from a dead backend.
func readResponse(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte limit", resp.ContentLength, limit)
	}
	size := int64(512)
	if resp.ContentLength >= 0 {
		size = resp.ContentLength + 1 // room for the read that sees EOF
	}
	b, err := wire.ReadAll(make([]byte, 0, size), resp.Body, limit+1)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("body exceeds the %d-byte limit", limit)
	}
	return b, nil
}

// forwardRead runs one read against the rotation with failover and (when
// enabled, under the cap) one hedge: the first attempt goes to the
// rotation's next backend, a hedge fires to the following one if the
// attempt outlives the backend's latency budget, and the first answer
// below 500 wins — the loser's context is cancelled on return. A
// failover-grade outcome (transport error or 5xx) ejects the backend
// from rotation (cancelled losers are never reported: their context
// error says nothing about the backend) and moves on to the next
// candidate when no other attempt is still in flight. The wait is timed
// on st: forward up to a hedge's launch, hedge_wait from there.
func (p *Proxy) forwardRead(ctx context.Context, st obs.Stages, method, path, rawQuery string, body []byte) (result, *api.Error) {
	p.reads.Inc()
	targets := p.router.ReadTargets(maxReadTargets)
	if len(targets) == 0 {
		return result{}, api.Errorf(http.StatusBadGateway, api.CodeInternal, "proxy: no backend available")
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // kills the losing attempt the moment a winner returns
	results := make(chan result, len(targets))
	next := 0
	launch := func(hedged bool) {
		c := targets[next]
		if next > 0 && next == len(targets)-1 {
			// The fallback is the primary resolved now, not when the list
			// was made: a promotion while the followers were tried moves
			// it (as Router.read does).
			if pc := p.router.Primary(); !slices.Contains(targets[:next], pc) {
				c = pc
			}
		}
		next++
		go func() {
			res := p.attempt(actx, c, method, path, rawQuery, body)
			res.hedged = hedged
			results <- res
		}()
	}
	launch(false)
	inflight := 1
	hedgeLaunched := false
	defer func() {
		if hedgeLaunched {
			st.Mark(obs.StageHedgeWait)
		} else {
			st.Mark(obs.StageForward)
		}
	}()
	var timerC <-chan time.Time
	if p.opts.Hedge && next < len(targets) && p.hedgeAllowed() {
		t := time.NewTimer(p.budgetFor(targets[0]))
		defer t.Stop()
		timerC = t.C
	}
	var lastErr error
	for {
		select {
		case res := <-results:
			inflight--
			if res.err == nil && res.status < http.StatusInternalServerError {
				p.estimatorFor(res.c).observe(res.latency)
				p.router.ReportRead(res.c, nil)
				if res.hedged {
					p.hedgesWon.Inc()
				} else if hedgeLaunched {
					p.hedgesCancelled.Inc()
				}
				obs.AddAttrs(ctx, slog.String("backend", res.c.BaseURL()),
					slog.Bool("hedged", res.hedged))
				return res, nil
			}
			if ctx.Err() != nil {
				// The CALLER is gone (or timed out); the backends are not at
				// fault, so no ejection.
				return result{}, api.Errorf(http.StatusBadGateway, api.CodeInternal,
					"proxy: read abandoned: %v", ctx.Err())
			}
			lastErr = res.err
			if lastErr == nil {
				lastErr = fmt.Errorf("backend %s answered %d", res.c.BaseURL(), res.status)
			}
			p.router.ReportRead(res.c, lastErr)
			if inflight > 0 {
				continue // the other attempt may still win
			}
			if next >= len(targets) {
				return result{}, api.Errorf(http.StatusBadGateway, api.CodeInternal,
					"proxy: every backend failed: %v", lastErr)
			}
			launch(false)
			inflight++
		case <-timerC:
			timerC = nil
			if next < len(targets) {
				st.Mark(obs.StageForward)
				hedgeLaunched = true
				p.hedgesIssued.Inc()
				launch(true)
				inflight++
			}
		}
	}
}

// readBody buffers a request body for replay across attempts. Bodies one
// byte over the wire limit are forwarded as-is: the backend rejects them
// with exactly the envelope a direct caller would get, so there is no
// need to duplicate its validation (or its message bytes) here.
func readBody(r *http.Request) ([]byte, *api.Error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	b, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBodyBytes+1))
	if err != nil {
		return nil, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "reading request body: %v", err)
	}
	return b, nil
}

// cacheKey is the exact-request key: two requests share an entry only if
// a backend would answer them byte-identically at one epoch.
func cacheKey(method, path, rawQuery string, body []byte) string {
	return method + "\x00" + path + "\x00" + rawQuery + "\x00" + string(body)
}

// copyRespHeaders forwards the response headers that carry meaning
// across the hop.
func copyRespHeaders(w http.ResponseWriter, h http.Header) {
	for _, k := range []string{"Content-Type", "Allow", api.HeaderEpoch} {
		if v := h.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

// handleCachedRead serves query and proximity: cache lookup at the
// current epoch first, then a hedged forward whose 200 responses fill
// the cache under the epoch the backend stamped them with.
func (p *Proxy) handleCachedRead(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	body, herr := readBody(r)
	if herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	path := r.URL.Path
	key := cacheKey(r.Method, path, r.URL.RawQuery, body)
	st := obs.StagesOf(r.Context())
	st.Mark(obs.StageDecode)
	cached, epoch, ok := p.cache.get(key)
	st.Mark(obs.StageCache)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(api.HeaderEpoch, strconv.FormatUint(epoch, 10))
		w.Header().Set(HeaderCache, "hit")
		wire.WriteBody(w, http.StatusOK, cached)
		st.Mark(obs.StageWrite)
		return
	}
	res, herr := p.forwardRead(r.Context(), st, r.Method, path, r.URL.RawQuery, body)
	if herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	if res.status == http.StatusOK {
		if epoch, err := strconv.ParseUint(res.header.Get(api.HeaderEpoch), 10, 64); err == nil {
			p.cache.put(key, epoch, res.body)
		}
	}
	st.Mark(obs.StageCache)
	copyRespHeaders(w, res.header)
	w.Header().Set(HeaderCache, "miss")
	wire.WriteBody(w, res.status, res.body)
	st.Mark(obs.StageWrite)
}

// handlePlainRead serves healthz and classes: hedged forward, no cache
// (they're cheap and not epoch-stamped).
func (p *Proxy) handlePlainRead(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	res, herr := p.forwardRead(r.Context(), obs.Stages{}, r.Method, r.URL.Path, r.URL.RawQuery, nil)
	if herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	copyRespHeaders(w, res.header)
	wire.WriteBody(w, res.status, res.body)
}

// handleUpdate forwards writes typed through Router.Update — never
// hedged (an update is not idempotent), pinned to the resolved primary
// with the router's retry-on-promotion semantics — and uses the
// response's epoch as an immediate cache flush: a write through the
// proxy invalidates synchronously, before its ack reaches the caller.
func (p *Proxy) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodPost) {
		return
	}
	var req api.UpdateRequest
	if herr := wire.DecodeStrict(w, r, &req); herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	resp, err := p.router.Update(r.Context(), req)
	if err != nil {
		writeUpstreamErr(w, err)
		return
	}
	p.cache.advance(resp.Epoch)
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleStats forwards the resolved primary's stats and appends the
// proxy's own counters as the ProxyStats extension. The primary's epoch
// doubles as a cache-flush signal (poll piggybacking: any caller asking
// for stats refreshes the proxy's epoch for free).
func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	st, err := p.router.Stats(r.Context())
	if err != nil {
		writeUpstreamErr(w, err)
		return
	}
	p.cache.advance(st.Epoch)
	counters := p.Counters()
	st.Proxy = &counters
	wire.WriteJSON(w, http.StatusOK, st)
}

// handleReadyz answers for the proxy itself: ready while at least one
// backend can serve reads (a live follower, or a reachable ready
// primary).
func (p *Proxy) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	ready := len(p.router.Live()) > 0
	if !ready {
		if resp, err := p.router.Primary().Ready(r.Context()); err == nil && resp.Ready() {
			ready = true
		}
	}
	out := api.ReadyResponse{Status: api.StatusReady, Role: api.RoleProxy}
	status := http.StatusOK
	if !ready {
		out.Status = api.StatusNoBackends
		status = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, status, out)
}

// handleReplicate streams the replication endpoints through to the
// resolved primary untouched — long-polls and snapshot streams must not
// be buffered, hedged, or timed out by the proxy (the request context
// still applies).
func (p *Proxy) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	c := p.router.Primary()
	u := c.BaseURL() + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
	if err != nil {
		wire.WriteErr(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err))
		return
	}
	resp, err := p.raw.Do(req)
	if err != nil {
		writeUpstreamErr(w, err)
		return
	}
	defer resp.Body.Close()
	copyRespHeaders(w, resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // the client is gone if this fails
}

// writeUpstreamErr renders a typed-forward failure: a structured backend
// error passes through under its own status and code; a transport
// failure becomes a 502.
func writeUpstreamErr(w http.ResponseWriter, err error) {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		wire.WriteErr(w, apiErr)
		return
	}
	wire.WriteErr(w, api.Errorf(http.StatusBadGateway, api.CodeInternal, "proxy: backend unreachable: %v", err))
}
