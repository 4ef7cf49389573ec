// Package server exposes a semprox.Engine over HTTP/JSON — the online
// serving layer of the ROADMAP's "heavy traffic" north star. The wire
// contract — every request/response type, the error envelope, the path
// constants, the request limits — lives in the public api package; this
// package only binds those shapes to an engine. Endpoints (all under
// /v1; anything else is a 404 envelope):
//
//	GET  /v1/healthz    liveness plus graph/class inventory
//	GET  /v1/classes    trained class names
//	GET  /v1/query      one ranked query (?class=&query=&k=)
//	POST /v1/query      one query {"class","query","k"} or a batch
//	                    {"class","queries":[...],"k"} in a single request
//	GET  /v1/proximity  one pair score (?class=&x=&y=)
//	POST /v1/proximity  one pair score {"class","x","y"}
//	POST /v1/update     batched live node/edge additions
//	                    {"nodes":[{"type","name"}],"edges":[{"u","v"}]}
//	GET  /v1/stats      serving epoch + LSN, graph counts, matched
//	                    metagraphs, pending-compaction state
//	GET  /v1/readyz     readiness: primaries are ready once serving;
//	                    followers report replication lag and stay 503
//	                    until caught up
//	GET  /v1/replicate/snapshot   engine snapshot stream (follower bootstrap)
//	GET  /v1/replicate/since      WAL records after an LSN, long-polling
//	                              (503 unless a WAL is attached)
//
// Query and proximity responses carry the serving epoch that computed
// them in the api.HeaderEpoch response header — transport metadata, so
// bodies stay byte-identical across replicas — which is what lets the
// semproxy edge cache key entries by exact data generation.
//
// Every error is the api package's structured envelope —
// {"error":{"code","message"}} — with a 4xx status for client mistakes
// (unknown class, node or type, malformed JSON, oversized batch), so
// callers never parse free-text failures. Handlers only use the engine
// operations documented as safe for concurrent use, so the server keeps
// answering while classes train, updates apply, and overlays compact in
// the background: an update swaps the serving epoch atomically, and a
// query sees the old epoch or the new one, never a mix.
//
// Durability and roles: AttachWAL makes the server a primary — every
// update is appended and fsynced to the write-ahead log before it is
// applied, and the /v1/replicate endpoints feed followers. SetFollower
// makes it a read replica — updates return 503 (the primary owns writes)
// and /v1/readyz reports catch-up progress.
package server

import (
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	semprox "repro"
	"repro/api"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Request limits re-exported from the wire contract; the api package is
// the source of truth.
const (
	MaxBatch  = api.MaxBatch
	MaxUpdate = api.MaxUpdate
	defaultK  = api.DefaultK
)

// role is everything about the server that changes when the node's
// place in the replication topology changes: the engine it serves, the
// log it writes (primary), and the follower feeding it (replica). It is
// swapped as ONE atomic pointer — a promotion (follower → primary on
// failover) replaces the whole set in a single store, and every handler
// loads it exactly once per request, so no request ever sees a primary
// log paired with a follower engine.
type role struct {
	eng *semprox.Engine
	// log, when attached, makes every update durable before its ack;
	// primary then serves it to followers over /v1/replicate.
	log     *wal.WAL
	primary *replica.Primary
	// follower, when set, marks this server a read replica: updates are
	// refused and /v1/readyz reports replication lag.
	follower *replica.Follower
}

// Server routes HTTP requests to one engine.
type Server struct {
	role atomic.Pointer[role]
	mux  *http.ServeMux
	// reg is this server's own metric registry: per-endpoint latency and
	// status-class series plus the engine position gauges. Process-wide
	// families (WAL, replica, engine hot paths) live on the obs default
	// registry; /metrics renders the union, so one scrape sees both —
	// and in-process multi-server stacks keep per-server HTTP counters
	// separable.
	reg *obs.Registry
	// wrap is mux behind the obs middleware (tracing, metrics, request
	// log). Rebuilt by SetRequestLog — call that before serving.
	wrap http.Handler
	// autoCompact folds update overlays into flat storage from a
	// background goroutine after each update; compacting wakes track the
	// in-flight goroutines so tests (and graceful shutdown) can wait.
	autoCompact bool
	compacting  sync.WaitGroup
	// updateMu serializes update handlers. The handler predicts the ids
	// of the nodes it adds (n, n+1, ... off the current graph) before
	// calling ApplyUpdate; two concurrent handlers predicting off the
	// same epoch would race to the same ids and silently cross-wire their
	// edges, so the whole read-resolve-apply sequence is one critical
	// section — including the WAL append, which must START in apply
	// order. Queries never touch this lock.
	//
	// The fsync does NOT happen under this lock: the handler enqueues
	// the record (wal.AppendAsync) and applies it inside the critical
	// section, then waits for durability (wal.WaitDurable) outside it —
	// so while update N's fsync runs, update N+1 is already resolving
	// and enqueueing, and the log's group commit folds both into one
	// fsync. The ack still only leaves after the record is on disk;
	// what's pipelined is ack N vs fsync N+1, not durability itself.
	updateMu sync.Mutex
	// ackReplicas > 0 additionally holds each update's ack until some
	// follower has confirmed (via its poll position) durably applying
	// the record — synchronous replication, the failover guarantee that
	// an acked write survives losing the primary.
	ackReplicas atomic.Int64
}

// New wraps an engine in an HTTP handler with background compaction after
// updates enabled.
func New(eng *semprox.Engine) *Server {
	s := &Server{mux: http.NewServeMux(), reg: obs.NewRegistry(), autoCompact: true}
	s.role.Store(&role{eng: eng})
	for path, h := range map[string]http.HandlerFunc{
		api.PathHealthz:           s.handleHealthz,
		api.PathClasses:           s.handleClasses,
		api.PathQuery:             s.handleQuery,
		api.PathProximity:         s.handleProximity,
		api.PathUpdate:            s.handleUpdate,
		api.PathStats:             s.handleStats,
		api.PathReadyz:            s.handleReadyz,
		api.PathReplicateSince:    s.handleReplicateSince,
		api.PathReplicateSnapshot: s.handleReplicateSnapshot,
	} {
		s.mux.HandleFunc(path, h)
	}
	s.mux.HandleFunc("/", wire.NotFound)
	s.mux.Handle(wire.MetricsPath, obs.Handler(s.reg, obs.Default()))
	// The epoch/LSN gauges read through s.engine() so a follower's
	// re-bootstrap (which swaps engines) and a promotion keep the series
	// pointed at whatever engine is actually serving.
	s.reg.RegisterGaugeFunc("semprox_engine_epoch",
		"Serving epoch of the engine behind this server (one per applied update).",
		func() float64 { return float64(s.engine().Epoch()) })
	s.reg.RegisterGaugeFunc("semprox_engine_lsn",
		"Durable log position of the serving epoch.",
		func() float64 { return float64(s.engine().LSN()) })
	s.buildWrap(nil, 0)
	return s
}

// buildWrap (re)wraps the mux with the obs middleware.
func (s *Server) buildWrap(logger *slog.Logger, slow time.Duration) {
	s.wrap = obs.WrapHTTP(s.mux, obs.HTTPOptions{
		Registry:      s.reg,
		TraceHeader:   api.HeaderTrace,
		Component:     "server",
		Logger:        logger,
		SlowThreshold: slow,
		PathLabel:     wire.PathLabel,
		EpochHeader:   api.HeaderEpoch,
	})
}

// SetRequestLog enables one structured log line per request on logger —
// endpoint, status, latency, trace ID, serving epoch — escalated to Warn
// when a request takes at least slow (0 never escalates). The daemons
// enable this; in-process test stacks stay quiet by default. Call before
// serving.
func (s *Server) SetRequestLog(logger *slog.Logger, slow time.Duration) {
	s.buildWrap(logger, slow)
}

// AttachWAL makes the server a primary: every accepted update is
// appended (and fsynced, via the log's group commit) to w before its
// ack, and the /v1/replicate endpoints serve the log to followers. Call
// before serving.
func (s *Server) AttachWAL(w *wal.WAL) {
	eng := s.role.Load().eng
	s.role.Store(&role{eng: eng, log: w, primary: replica.NewPrimary(eng, w)})
}

// SetFollower marks the server a read replica fed by f: updates return
// 503 (writes belong to the primary) and /v1/readyz reports catch-up
// state. Call before serving.
func (s *Server) SetFollower(f *replica.Follower) {
	s.role.Store(&role{eng: s.role.Load().eng, follower: f})
}

// SetAckReplicas makes every update ack wait until a follower confirms
// durably applying it (n > 0; the count is advisory — one confirming
// follower releases the ack). Safe to call while serving.
func (s *Server) SetAckReplicas(n int) { s.ackReplicas.Store(int64(n)) }

// PromoteFollower is the whole promotion, in the only order that is safe:
// the follower's local log is sealed under a raised term
// (Follower.Promote), the tail of that log the engine has not applied yet
// — a batch fsynced when Run stopped — is replayed, and the role flips to
// a primary serving writes on it. It returns the log, now the server's.
// Call only after the follower's Run has stopped. A server that is not a
// follower (a second call included) is refused with its role unchanged;
// after any other error the follower is sealed but not serving writes,
// and the process should exit: a restart resumes from the state
// directory.
func (s *Server) PromoteFollower() (*wal.WAL, error) {
	f := s.role.Load().follower
	if f == nil {
		return nil, errors.New("server: promote: not a follower")
	}
	// A follower that never bootstrapped has no log either: Promote
	// refuses it before its missing engine is reached.
	w, err := f.Promote()
	if err != nil {
		return nil, err
	}
	if _, _, err := semprox.ReplayWAL(f.Engine(), w); err != nil {
		return nil, fmt.Errorf("server: promote: replaying the local log tail: %w", err)
	}
	return w, s.promote(f.Engine(), w)
}

// promote swaps the role: the engine, its log and a fresh Primary replace
// the follower in one atomic store. Requests already past their role load
// finish under the old one (they were refusing updates — still correct),
// everything after serves the new.
func (s *Server) promote(eng *semprox.Engine, w *wal.WAL) error {
	if got, want := eng.LSN()+1, w.NextLSN(); got != want {
		return fmt.Errorf("server: promote: engine expects LSN %d but the log would assign %d", got, want)
	}
	s.role.Store(&role{eng: eng, log: w, primary: replica.NewPrimary(eng, w)})
	return nil
}

// engine returns the engine requests should serve. A follower's engine
// is read through the follower on every request: divergence makes
// Follower.Run re-bootstrap, which swaps in a brand-new engine, and
// handlers that held on to the old pointer would keep serving frozen
// data forever. Each handler calls this once and uses the result
// throughout, so a single request never mixes two engines.
func (s *Server) engine() *semprox.Engine {
	rl := s.role.Load()
	if rl.follower != nil {
		if eng := rl.follower.Engine(); eng != nil {
			return eng
		}
	}
	return rl.eng
}

// SetAutoCompact toggles background compaction after updates. Call before
// serving; with it off, stats keep reporting the pending overlays until
// the operator compacts some other way.
func (s *Server) SetAutoCompact(on bool) { s.autoCompact = on }

// WaitCompactions blocks until every background compaction kicked off by
// handled updates has finished.
func (s *Server) WaitCompactions() { s.compacting.Wait() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.wrap.ServeHTTP(w, r) }

// errBadRequest builds a 400 with code "bad_request".
func errBadRequest(format string, args ...any) *api.Error {
	return api.Errorf(http.StatusBadRequest, api.CodeBadRequest, format, args...)
}

// errNotFound builds a 404 with the given code.
func errNotFound(code, format string, args ...any) *api.Error {
	return api.Errorf(http.StatusNotFound, code, format, args...)
}

// errUnavailable builds a 503 with the given code.
func errUnavailable(code, format string, args ...any) *api.Error {
	return api.Errorf(http.StatusServiceUnavailable, code, format, args...)
}

// errInternal builds a 500 with code "internal".
func errInternal(format string, args ...any) *api.Error {
	return api.Errorf(http.StatusInternalServerError, api.CodeInternal, format, args...)
}

// resolveClass 404s for classes the serving epoch has not trained.
func resolveClass(v semprox.View, class string) *api.Error {
	if class == "" {
		return errBadRequest("missing class")
	}
	if v.HasClass(class) {
		return nil
	}
	return errNotFound(api.CodeClassNotFound, "class %q not trained (have %v)", class, v.Classes())
}

// resolveNode maps a node name to its id, 404ing unknown names.
func resolveNode(g *semprox.Graph, field, name string) (semprox.NodeID, *api.Error) {
	if name == "" {
		return semprox.InvalidNode, errBadRequest("missing %s", field)
	}
	id := g.NodeByName(name)
	if id == semprox.InvalidNode {
		return semprox.InvalidNode, errNotFound(api.CodeNodeNotFound, "node %q not in graph", name)
	}
	return id, nil
}

// setEpochHeader stamps a read response with the serving epoch that
// produced it (api.HeaderEpoch). The value comes from the SAME pinned
// View the results were computed on — reading Engine.Epoch separately
// here could pair an old epoch's results with a new epoch's counter
// across a concurrent update, exactly the torn pairing an epoch-keyed
// edge cache cannot tolerate.
func setEpochHeader(w http.ResponseWriter, v semprox.View) {
	w.Header().Set(api.HeaderEpoch, strconv.FormatUint(v.Epoch(), 10))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	eng := s.engine()
	g := eng.Graph()
	wire.WriteJSON(w, http.StatusOK, api.HealthResponse{
		Status:     "ok",
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Types:      g.NumTypes(),
		Metagraphs: eng.NumMetagraphs(),
		Classes:    eng.Classes(),
	})
}

func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	wire.WriteJSON(w, http.StatusOK, api.ClassesResponse{Classes: s.engine().Classes()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	var req api.QueryRequest
	if r.Method == http.MethodGet {
		req.Class = r.URL.Query().Get("class")
		req.Query = r.URL.Query().Get("query")
		if kStr := r.URL.Query().Get("k"); kStr != "" {
			k, err := strconv.Atoi(kStr)
			if err != nil {
				wire.WriteErr(w, errBadRequest("bad k %q", kStr))
				return
			}
			req.K = k
		}
	} else if herr := wire.DecodeStrict(w, r, &req); herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	// k is a client-facing knob: 0 means "the default", and negative
	// values are rejected rather than inheriting the engine's internal
	// "k <= 0 returns every candidate" convention — an unbounded response
	// a client can't ask for by accident.
	if req.K < 0 {
		wire.WriteErr(w, errBadRequest("k must be >= 0, got %d", req.K))
		return
	}
	if req.K == 0 {
		req.K = defaultK
	}
	// One pinned View answers the whole request — name resolution, the
	// scan, and the epoch header all describe the same generation, even
	// if an update swaps a new epoch in mid-request.
	v := s.engine().View()
	if herr := resolveClass(v, req.Class); herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	switch {
	case req.Query != "" && len(req.Queries) > 0:
		wire.WriteErr(w, errBadRequest("set query or queries, not both"))
	case req.Query != "":
		querySingle(w, v, req)
	case len(req.Queries) > 0:
		queryBatch(w, v, req)
	default:
		wire.WriteErr(w, errBadRequest("missing query"))
	}
}

// querySingle answers one ranked query.
func querySingle(w http.ResponseWriter, v semprox.View, req api.QueryRequest) {
	q, herr := resolveNode(v.Graph(), "query", req.Query)
	if herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	ranked, err := v.Query(req.Class, q, req.K)
	if err != nil {
		wire.WriteErr(w, errNotFound(api.CodeClassNotFound, "%v", err))
		return
	}
	setEpochHeader(w, v)
	wire.WriteJSON(w, http.StatusOK, &api.QueryResponse{
		Class:   req.Class,
		K:       req.K,
		Results: []api.QueryResult{render(v.Graph(), req.Query, ranked)},
	})
}

// queryBatch resolves every query name, then answers them in one
// QueryBatch call — one epoch for the whole batch.
func queryBatch(w http.ResponseWriter, v semprox.View, req api.QueryRequest) {
	if len(req.Queries) > MaxBatch {
		wire.WriteErr(w, errBadRequest("batch of %d queries exceeds limit %d", len(req.Queries), MaxBatch))
		return
	}
	qs := make([]semprox.NodeID, len(req.Queries))
	for i, name := range req.Queries {
		q, herr := resolveNode(v.Graph(), fmt.Sprintf("queries[%d]", i), name)
		if herr != nil {
			wire.WriteErr(w, herr)
			return
		}
		qs[i] = q
	}
	rankings, err := v.QueryBatch(req.Class, qs, req.K)
	if err != nil {
		wire.WriteErr(w, errNotFound(api.CodeClassNotFound, "%v", err))
		return
	}
	out := api.QueryResponse{Class: req.Class, K: req.K, Results: make([]api.QueryResult, len(rankings))}
	for i, ranked := range rankings {
		out.Results[i] = render(v.Graph(), req.Queries[i], ranked)
	}
	setEpochHeader(w, v)
	wire.WriteJSON(w, http.StatusOK, &out)
}

// render converts one engine ranking to its wire shape.
func render(g *semprox.Graph, query string, ranked []semprox.Ranked) api.QueryResult {
	out := api.QueryResult{Query: query, Results: make([]api.RankedResult, len(ranked))}
	for i, r := range ranked {
		out.Results[i] = api.RankedResult{Node: int32(r.Node), Name: g.Name(r.Node), Score: r.Score}
	}
	return out
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodPost) {
		return
	}
	rl := s.role.Load()
	if rl.follower != nil {
		wire.WriteErr(w, errUnavailable(api.CodeNotPrimary,
			"this replica is read-only; send updates to the primary at %s", rl.follower.PrimaryURL()))
		return
	}
	var req api.UpdateRequest
	if herr := wire.DecodeStrict(w, r, &req); herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	if len(req.Nodes) == 0 && len(req.Edges) == 0 {
		wire.WriteErr(w, errBadRequest("empty update: add nodes, edges, or both"))
		return
	}
	if total := len(req.Nodes) + len(req.Edges); total > MaxUpdate {
		wire.WriteErr(w, errBadRequest("update of %d additions exceeds limit %d", total, MaxUpdate))
		return
	}
	st, herr := s.applyUpdate(rl, req)
	if herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	// Durability gate, OUTSIDE the lock: the record was enqueued and the
	// engine updated in the critical section; the ack leaves only after
	// the log reports the record fsynced. Meanwhile the next update is
	// already inside the critical section enqueueing — its record rides
	// the same or the next group commit. A failed wait means the log is
	// sticky-poisoned (readyz flips wal_failed); the epoch already
	// applied stays visible locally but was never acked.
	if rl.log != nil {
		if err := rl.log.WaitDurable(st.LSN); err != nil {
			wire.WriteErr(w, errInternal("update at LSN %d applied but not durable (log failed): %v", st.LSN, err))
			return
		}
		if rl.primary != nil && s.ackReplicas.Load() > 0 {
			// Synchronous replication: hold the ack until a follower's
			// poll position confirms the record is durable off this box
			// too. ctx ends (client gone / server timeout) → the write IS
			// applied and locally durable, but we cannot claim it's
			// replicated; 500 tells the client its fate is unknown.
			if !rl.primary.WaitConfirmed(r.Context(), st.LSN) {
				wire.WriteErr(w, errInternal("update at LSN %d durable locally but not yet confirmed by any replica", st.LSN))
				return
			}
		}
	}
	if s.autoCompact && st.Pending > 0 {
		s.compacting.Add(1)
		go func() {
			defer s.compacting.Done()
			rl.eng.Compact()
		}()
	}
	wire.WriteJSON(w, http.StatusOK, api.UpdateResponse{
		Epoch:             st.Epoch,
		LSN:               st.LSN,
		NodesAdded:        st.NodesAdded,
		EdgesAdded:        st.EdgesAdded,
		Rematched:         st.Rematched,
		PendingCompaction: st.Pending,
	})
}

// applyUpdate is the update critical section: resolve the request
// against the current graph, enqueue the record, apply the delta. It
// returns with the record IN FLIGHT to disk — the caller must gate the
// ack on WaitDurable.
func (s *Server) applyUpdate(rl *role, req api.UpdateRequest) (semprox.UpdateStats, *api.Error) {
	var zero semprox.UpdateStats
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	eng := rl.eng // never a follower here: the update was refused by the caller
	g := eng.Graph()
	d := semprox.Delta{Nodes: make([]semprox.DeltaNode, len(req.Nodes))}
	fresh := make(map[string]semprox.NodeID, len(req.Nodes))
	for i, n := range req.Nodes {
		if n.Type == "" || n.Name == "" {
			return zero, errBadRequest("nodes[%d]: type and name are required", i)
		}
		if g.Types().ID(n.Type) == semprox.InvalidType {
			return zero, errBadRequest("nodes[%d]: unknown type %q (a delta cannot introduce types)", i, n.Type)
		}
		d.Nodes[i] = semprox.DeltaNode{Type: n.Type, Value: n.Name}
		if _, dup := fresh[n.Name]; !dup {
			fresh[n.Name] = semprox.NodeID(g.NumNodes() + i)
		}
	}
	resolve := func(field, name string) (semprox.NodeID, *api.Error) {
		if name == "" {
			return semprox.InvalidNode, errBadRequest("missing %s", field)
		}
		if id, ok := fresh[name]; ok {
			return id, nil
		}
		if id := g.NodeByName(name); id != semprox.InvalidNode {
			return id, nil
		}
		return semprox.InvalidNode, errNotFound(api.CodeNodeNotFound, "node %q neither in graph nor added by this update", name)
	}
	d.Edges = make([]semprox.Edge, len(req.Edges))
	for i, e := range req.Edges {
		u, herr := resolve(fmt.Sprintf("edges[%d].u", i), e.U)
		if herr != nil {
			return zero, herr
		}
		v, herr := resolve(fmt.Sprintf("edges[%d].v", i), e.V)
		if herr != nil {
			return zero, herr
		}
		d.Edges[i] = semprox.Edge{U: u, V: v}
	}
	// Log order equals apply order: the delta is enqueued to the log and
	// applied to the engine inside updateMu. The enqueue assigns the LSN
	// and starts the record toward disk but does NOT wait for the fsync —
	// that's the caller's WaitDurable, outside the lock, which is what
	// lets consecutive updates share one group commit. A crash can
	// therefore lose an applied-but-unsynced suffix; no ack ever covered
	// it (WaitDurable gates every ack), and recovery replays exactly the
	// durable prefix.
	var st semprox.UpdateStats
	var err error
	if rl.log != nil {
		lsn, aerr := rl.log.AppendAsync(d)
		if aerr != nil {
			return zero, errInternal("wal append: %v", aerr)
		}
		st, err = eng.ApplyUpdateAt(d, lsn)
		if err != nil {
			// The record is logged but the engine rejected it — the
			// validation above is meant to make this unreachable. Leaving
			// the log and engine disagreeing would brick the next boot
			// (replay hits the same record) and wedge followers, so first
			// make the record itself durable, then record the skip durably
			// in the log's skip list, then advance the LSN past the dead
			// record: ApplyUpdateAt is deterministic, so replay reproduces
			// the recorded skip and re-bootstrapping replicas land beyond
			// it — every copy stays aligned. (The skip sidecar must never
			// name a record that isn't on disk, hence the wait first.)
			log.Printf("server: update logged at LSN %d but rejected by the engine (recording the skip): %v", lsn, err)
			if derr := rl.log.WaitDurable(lsn); derr != nil {
				// The record never became durable and the log is poisoned
				// (readyz now wal_failed); with no durable record there is
				// no gap to annotate, and the engine never applied it.
				return zero, errInternal("update rejected at LSN %d and the log failed syncing it: %v (rejection: %v)", lsn, derr, err)
			}
			if serr := rl.log.RecordSkip(lsn); serr != nil {
				// RecordSkip poisons the log on failure: Append now refuses
				// and readyz reports wal_failed, so the operator learns
				// immediately that the next boot would refuse to replay past
				// this record, instead of at that boot.
				log.Printf("server: recording skip of LSN %d failed, WAL poisoned (readyz now wal_failed): %v", lsn, serr)
			}
			eng.AdvanceLSN(lsn)
			return zero, errInternal("update logged at LSN %d but rejected by the engine: %v", lsn, err)
		}
	} else {
		st, err = eng.ApplyUpdate(d)
		if err != nil {
			// Everything client-controlled was validated above; a residual
			// failure still maps to a 400 with the engine's reason.
			return zero, errBadRequest("%v", err)
		}
	}
	return st, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	st := s.engine().Stats()
	wire.WriteJSON(w, http.StatusOK, api.StatsResponse{
		Epoch:             st.Epoch,
		LSN:               st.LSN,
		Nodes:             st.Nodes,
		Edges:             st.Edges,
		Types:             st.Types,
		Metagraphs:        st.Metagraphs,
		Matched:           st.Matched,
		PendingCompaction: st.PendingCompaction,
		Classes:           st.Classes,
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	rl := s.role.Load()
	if rl.follower != nil {
		// One Status() read feeds the whole response: separate calls
		// would re-read the atomics and could disagree with the
		// ready/LSN values reported here.
		fst := rl.follower.Status()
		resp := api.ReadyResponse{Status: api.StatusReady, Role: api.RoleFollower,
			LSN: fst.Applied, PrimaryLSN: fst.PrimaryLSN, Lag: fst.Lag, Term: fst.Term}
		status := http.StatusOK
		switch {
		case fst.Fenced:
			// Not catching_up: fencing never clears with time, only by
			// reaching a current-term primary. Monitors treat the two
			// differently (a fenced follower is still an election
			// candidate; its LSN and term are trustworthy).
			resp.Status = api.StatusFenced
			status = http.StatusServiceUnavailable
		case !fst.Ready:
			resp.Status = api.StatusCatchingUp
			status = http.StatusServiceUnavailable
		}
		wire.WriteJSON(w, status, resp)
		return
	}
	role, term := api.RoleStandalone, uint64(0)
	if rl.log != nil {
		role, term = api.RolePrimary, rl.log.Term()
		// A primary whose log has sticky-failed (disk full, I/O error) can
		// accept no more writes until restart; readiness is how load
		// balancers find that out.
		if err := rl.log.Err(); err != nil {
			wire.WriteJSON(w, http.StatusServiceUnavailable,
				api.ReadyResponse{Status: api.StatusWALFailed, Role: role, LSN: rl.eng.LSN(), Term: term})
			return
		}
	}
	wire.WriteJSON(w, http.StatusOK, api.ReadyResponse{Status: api.StatusReady, Role: role, LSN: rl.eng.LSN(), Term: term})
}

func (s *Server) handleReplicateSince(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	primary := s.role.Load().primary
	if primary == nil {
		wire.WriteErr(w, errUnavailable(api.CodeReplicationDisabled,
			"no write-ahead log attached (start with -wal to serve followers)"))
		return
	}
	status, body, err := primary.ServeSince(r)
	if err != nil {
		code := api.CodeBadRequest
		switch {
		case status == http.StatusConflict:
			code = api.CodeTermMismatch
		case status >= 500:
			code = api.CodeInternal
		}
		wire.WriteErr(w, api.Errorf(status, code, "%s", err.Error()))
		return
	}
	wire.WriteJSON(w, status, body)
}

func (s *Server) handleReplicateSnapshot(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet) {
		return
	}
	primary := s.role.Load().primary
	if primary == nil {
		wire.WriteErr(w, errUnavailable(api.CodeReplicationDisabled,
			"no write-ahead log attached (start with -wal to serve followers)"))
		return
	}
	// The snapshot streams straight from one immutable epoch; an error
	// after the first byte cannot become a structured response: the
	// stream then ends without its checksum trailer, which LoadEngine on
	// the follower refuses.
	if err := primary.ServeSnapshot(w, r); err != nil {
		//lint:semprox-allow mid-stream failure: headers (and possibly body bytes) are already sent, so no envelope can travel; the follower's LoadEngine refuses a stream without a valid checksum trailer
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleProximity(w http.ResponseWriter, r *http.Request) {
	if !wire.MethodCheck(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	var req api.ProximityRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Class, req.X, req.Y = q.Get("class"), q.Get("x"), q.Get("y")
	} else if herr := wire.DecodeStrict(w, r, &req); herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	v := s.engine().View()
	if herr := resolveClass(v, req.Class); herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	x, herr := resolveNode(v.Graph(), "x", req.X)
	if herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	y, herr := resolveNode(v.Graph(), "y", req.Y)
	if herr != nil {
		wire.WriteErr(w, herr)
		return
	}
	p, err := v.Proximity(req.Class, x, y)
	if err != nil {
		wire.WriteErr(w, errNotFound(api.CodeClassNotFound, "%v", err))
		return
	}
	setEpochHeader(w, v)
	wire.WriteJSON(w, http.StatusOK, &api.ProximityResponse{Class: req.Class, X: req.X, Y: req.Y, Proximity: p})
}
