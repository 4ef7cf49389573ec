// Package api is the versioned wire contract of the semprox serving
// layer — the one place the HTTP protocol is declared. The server
// (internal/server) renders exactly these types, the typed Go client
// (client) decodes exactly these types, and the replication machinery
// (internal/replica) speaks through the same client, so no consumer ever
// re-declares a request or response shape.
//
// Every endpoint lives under the /v1 prefix (PathQuery, PathUpdate, …);
// any other path is a 404. Every non-2xx response is the uniform
// envelope
//
//	{"error": {"code": "<machine-readable>", "message": "<human>"}}
//
// with the codes enumerated below, so callers branch on Code and never
// parse free-text failures.
//
// Compatibility contract: within /v1, fields are only ever added (with
// omitempty), never renamed, re-typed, or removed; codes and paths are
// append-only. A breaking change means a /v2 prefix, served alongside.
//
// Bodies are JSON as encoding/json defines it. Servers send them compact
// — no indentation, one trailing newline, Content-Length always set —
// and insignificant whitespace is not part of the contract in either
// direction: a consumer must parse, not pattern-match, and pipes a
// response through jq (or uses semproxctl, which indents) to read one.
// The hot types (QueryRequest, ProximityRequest, QueryResponse,
// ProximityResponse) have a reflection-free codec in codec.go that
// emits json.Marshal's exact bytes and decodes only that canonical form,
// deferring to encoding/json for everything else.
package api

import "fmt"

// Version is the current API version; every path below carries it.
const Version = "v1"

// Prefix is the path prefix of every versioned endpoint.
const Prefix = "/" + Version

// Versioned endpoint paths.
const (
	PathHealthz           = Prefix + "/healthz"
	PathReadyz            = Prefix + "/readyz"
	PathClasses           = Prefix + "/classes"
	PathQuery             = Prefix + "/query"
	PathProximity         = Prefix + "/proximity"
	PathUpdate            = Prefix + "/update"
	PathStats             = Prefix + "/stats"
	PathReplicateSince    = Prefix + "/replicate/since"
	PathReplicateSnapshot = Prefix + "/replicate/snapshot"
)

// Paths lists every versioned endpoint, in a stable order.
func Paths() []string {
	return []string{
		PathHealthz, PathReadyz, PathClasses, PathQuery, PathProximity,
		PathUpdate, PathStats, PathReplicateSince, PathReplicateSnapshot,
	}
}

// HeaderEpoch is the response header stamping query and proximity
// responses with the serving epoch that produced them — the same counter
// PathStats serves, emitted per response so edge caches (cmd/semproxy)
// can key entries by the exact data generation without a second request
// and without the torn pairing a separate stats poll could observe. It
// rides transport metadata, not the body, so response bytes stay
// identical across servers with and without the header — the
// byte-identity invariant replicas are tested under. Headers are
// additive transport metadata; adding one is a compatible /v1 change.
const HeaderEpoch = "X-Semprox-Epoch"

// HeaderTrace carries the per-request trace ID: minted at the first tier
// that sees a request (the semproxy edge, or a server hit directly),
// accepted verbatim when the caller already set one, and echoed on every
// response — success or error envelope — so one failed routed read is
// greppable across proxy and backend structured log lines. Like
// HeaderEpoch it is transport metadata only: the ID never appears in a
// response body, preserving byte-identity across replicas.
const HeaderTrace = "X-Semprox-Trace"

// Request limits, enforced server-side with CodeBadRequest. Clients that
// pre-validate against the same constants never burn a round trip on an
// oversized request.
const (
	// MaxBatch bounds the queries accepted by one batched query request.
	MaxBatch = 1024
	// MaxUpdate bounds the node plus edge additions of one update.
	MaxUpdate = 4096
	// MaxBodyBytes bounds a request body.
	MaxBodyBytes = 1 << 20
	// DefaultK is the result count when a query leaves k unset (0).
	DefaultK = 10
)

// Machine-readable error codes carried by the error envelope.
const (
	// CodeBadRequest: a malformed or over-limit request (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeClassNotFound: the named class is not trained (HTTP 404).
	CodeClassNotFound = "class_not_found"
	// CodeNodeNotFound: a node name not present in the graph (HTTP 404).
	CodeNodeNotFound = "node_not_found"
	// CodeNotFound: a path that is not an endpoint (HTTP 404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint (HTTP 405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotPrimary: an update sent to a read replica (HTTP 503); the
	// message names the primary to resend to.
	CodeNotPrimary = "not_primary"
	// CodeReplicationDisabled: a /replicate endpoint on a server with no
	// write-ahead log attached (HTTP 503).
	CodeReplicationDisabled = "replication_disabled"
	// CodeTermMismatch: a replication poll whose term query parameter
	// disagrees with the serving log's record at that LSN (HTTP 409) —
	// the poller's history diverged (it holds records a promotion
	// overwrote) and must re-bootstrap, not stream.
	CodeTermMismatch = "term_mismatch"
	// CodeInternal: a server-side failure (HTTP 5xx).
	CodeInternal = "internal"
)

// Error is the structured error of every non-2xx response. Status is the
// HTTP status it traveled under — transport metadata, not part of the
// body (the envelope carries code and message only).
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errorf builds an Error with a formatted message.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorEnvelope is the body shape of every non-2xx response.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// QueryRequest is the POST body of PathQuery: exactly one of Query
// (single) or Queries (batch, ≤ MaxBatch) must be set. K = 0 (or unset)
// requests the server default, DefaultK; negative K is rejected with
// CodeBadRequest (the Go client normalizes negative k to 0 before
// sending). The GET form carries the same fields as ?class=&query=&k=
// parameters.
type QueryRequest struct {
	Class   string   `json:"class"`
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`
	K       int      `json:"k,omitempty"`
}

// RankedResult is one entry of a ranking.
type RankedResult struct {
	Node  int32   `json:"node"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// QueryResult is the ranking of one query.
type QueryResult struct {
	Query   string         `json:"query"`
	Results []RankedResult `json:"results"`
}

// QueryResponse is the PathQuery response; a single query is a batch of
// one.
type QueryResponse struct {
	Class   string        `json:"class"`
	K       int           `json:"k"`
	Results []QueryResult `json:"results"`
}

// ProximityRequest is the POST body of PathProximity (GET: ?class=&x=&y=).
type ProximityRequest struct {
	Class string `json:"class"`
	X     string `json:"x"`
	Y     string `json:"y"`
}

// ProximityResponse is the PathProximity response.
type ProximityResponse struct {
	Class     string  `json:"class"`
	X         string  `json:"x"`
	Y         string  `json:"y"`
	Proximity float64 `json:"proximity"`
}

// UpdateNode is one node addition of an update; Type must already be
// registered in the graph (a delta cannot introduce types).
type UpdateNode struct {
	Type string `json:"type"`
	Name string `json:"name"`
}

// UpdateEdge is one edge addition; endpoints are node names, resolving
// against the request's own new nodes first and the graph second.
type UpdateEdge struct {
	U string `json:"u"`
	V string `json:"v"`
}

// UpdateRequest is the PathUpdate body; Nodes plus Edges is bounded by
// MaxUpdate.
type UpdateRequest struct {
	Nodes []UpdateNode `json:"nodes,omitempty"`
	Edges []UpdateEdge `json:"edges,omitempty"`
}

// UpdateResponse reports what one accepted update did. PendingCompaction
// always reads 0: an update publishes its epoch in flat storage, so nothing
// awaits compaction after it. The field stays because the /v1 contract only
// ever adds fields.
type UpdateResponse struct {
	Epoch             uint64 `json:"epoch"`
	LSN               uint64 `json:"lsn"`
	NodesAdded        int    `json:"nodes_added"`
	EdgesAdded        int    `json:"edges_added"`
	Rematched         int    `json:"rematched"`
	PendingCompaction int    `json:"pending_compaction"`
}

// HealthResponse is the PathHealthz body.
type HealthResponse struct {
	Status     string   `json:"status"`
	Nodes      int      `json:"nodes"`
	Edges      int      `json:"edges"`
	Types      int      `json:"types"`
	Metagraphs int      `json:"metagraphs"`
	Classes    []string `json:"classes"`
}

// ClassesResponse is the PathClasses body.
type ClassesResponse struct {
	Classes []string `json:"classes"`
}

// StatsResponse is the PathStats body. Matched counts the metagraphs the
// serving epoch holds — matched, indexed and re-matched by every update —
// which once a class is trained are the metagraphs some class weighs, not
// all it has seen. Proxy is absent from engine servers; the semproxy edge
// tier forwards the primary's stats and appends its own hedge/cache
// counters there (an added omitempty field — a compatible /v1 extension).
// PendingCompaction always reads 0, as in UpdateResponse.
type StatsResponse struct {
	Epoch             uint64      `json:"epoch"`
	LSN               uint64      `json:"lsn"`
	Nodes             int         `json:"nodes"`
	Edges             int         `json:"edges"`
	Types             int         `json:"types"`
	Metagraphs        int         `json:"metagraphs"`
	Matched           int         `json:"matched"`
	PendingCompaction int         `json:"pending_compaction"`
	Classes           []string    `json:"classes"`
	Proxy             *ProxyStats `json:"proxy,omitempty"`
}

// ProxyStats is the semproxy edge tier's observability block: how the
// hedger and the epoch-keyed response cache are behaving. Reads counts
// the read requests forwarded to backends (cache hits never reach one);
// HedgesIssued/Won/Cancelled decompose the duplicate requests the
// hedger launched (won = the hedge's answer was used, cancelled = the
// first attempt won and the hedge was cancelled mid-flight);
// EpochFlushes counts the epoch bumps the proxy observed, each of which
// flushes the cache; Epoch is the newest epoch observed.
type ProxyStats struct {
	Reads           uint64 `json:"reads"`
	HedgesIssued    uint64 `json:"hedges_issued"`
	HedgesWon       uint64 `json:"hedges_won"`
	HedgesCancelled uint64 `json:"hedges_cancelled"`
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	CacheEvictions  uint64 `json:"cache_evictions"`
	CacheEntries    int    `json:"cache_entries"`
	CacheBytes      int    `json:"cache_bytes"`
	EpochFlushes    uint64 `json:"epoch_flushes"`
	Epoch           uint64 `json:"epoch"`
}

// Roles reported by PathReadyz.
const (
	RolePrimary    = "primary"
	RoleFollower   = "follower"
	RoleStandalone = "standalone"
	// RoleProxy: a semproxy edge tier — not a replica; it fronts a
	// primary and followers and owns no data of its own.
	RoleProxy = "proxy"
)

// Readiness statuses reported by PathReadyz.
const (
	StatusReady      = "ready"
	StatusCatchingUp = "catching_up"
	StatusWALFailed  = "wal_failed"
	// StatusNoBackends: a proxy that can currently reach no backend able
	// to serve reads — no live follower and no ready primary.
	StatusNoBackends = "no_backends"
	// StatusFenced: a follower that observed records from a term older
	// than one it has already applied — it is polling a zombie primary
	// (one that lost its authority to a promotion) and refuses to apply
	// anything from it. Unlike catching_up this does not clear with
	// time; it clears when the follower reaches a current-term primary.
	StatusFenced = "fenced"
)

// ReadyResponse is the PathReadyz body. Unlike errors it travels on both
// 200 (ready) and 503 (catching up, fenced, or a primary whose WAL
// sticky-failed) so load balancers and the client Router read lag
// without a second request. Term is the node's promotion epoch — the
// term its log writes under (primary) or the newest term it has
// observed (follower); the Router trusts the highest-term backend
// claiming RolePrimary as the one true primary.
type ReadyResponse struct {
	Status     string `json:"status"`
	Role       string `json:"role"`
	LSN        uint64 `json:"lsn"`
	PrimaryLSN uint64 `json:"primary_lsn,omitempty"`
	Lag        uint64 `json:"lag"`
	Term       uint64 `json:"term,omitempty"`
}

// Ready reports whether the response announces a caught-up, serving
// replica.
func (r ReadyResponse) Ready() bool { return r.Status == StatusReady }

// ReplicateRecord is one logged delta on the wire; Delta is the WAL's
// binary encoding (graph.EncodeDelta), which encoding/json carries as
// base64. Term is the promotion epoch the record was written under
// (absent = 1, the term of every record logged before terms existed).
type ReplicateRecord struct {
	LSN   uint64 `json:"lsn"`
	Term  uint64 `json:"term,omitempty"`
	Delta []byte `json:"delta"`
}

// SinceResponse is the PathReplicateSince body: records with LSN > From
// in log order, plus the primary's durable LSN at read time so followers
// measure their lag. An empty Records with LastLSN == From means caught
// up. Term is the serving log's CURRENT term (absent = 1): a follower
// that has observed a newer term anywhere refuses this response — the
// server is a zombie, fenced off by a promotion it has not noticed yet.
type SinceResponse struct {
	From    uint64            `json:"from"`
	LastLSN uint64            `json:"last_lsn"`
	Term    uint64            `json:"term,omitempty"`
	Records []ReplicateRecord `json:"records"`
}
