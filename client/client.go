// Package client is the typed Go client of the semprox /v1 API — the
// consumer half of the api package's wire contract. Client speaks to one
// server: single and batched queries, proximity, live updates, stats,
// health, readiness, and the replication feed, all context-plumbed, with
// a default request timeout and bounded retry-on-5xx for read-only
// calls. Router (router.go) composes Clients into replica-aware serving:
// reads spread round-robin across caught-up followers with failover to
// the primary, writes pin to the primary.
//
// Errors: any response carrying the api error envelope is returned as
// *api.Error (with the HTTP status attached), so callers branch on
// machine-readable codes:
//
//	var apiErr *api.Error
//	if errors.As(err, &apiErr) && apiErr.Code == api.CodeNodeNotFound { ... }
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/api"
	"repro/internal/obs"
	"repro/internal/wire"
)

// DefaultTimeout bounds one HTTP request (connection + response) when
// the caller supplies no http.Client of their own. Long-polling
// replication reads extend it by the requested wait.
const DefaultTimeout = 30 * time.Second

// DefaultRetries is how many times a read-only request is retried after
// a 5xx or a transport error before the error surfaces.
const DefaultRetries = 2

// DefaultRetryBackoff is the pause before each retry.
const DefaultRetryBackoff = 100 * time.Millisecond

// Client speaks the /v1 wire contract to one server.
type Client struct {
	base string
	hc   *http.Client

	// Retries is the extra attempts after a 5xx or transport error on
	// read-only (GET) requests; writes are never retried (an update is
	// not idempotent — a retry after an ambiguous failure could apply
	// twice). Set 0 to disable.
	Retries int
	// RetryBackoff is the pause before each retry.
	RetryBackoff time.Duration
}

// New returns a client of the server at baseURL (scheme://host[:port],
// no trailing slash needed). A nil hc gets a dedicated http.Client with
// DefaultTimeout; pass your own to share pools or customize transport.
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: DefaultTimeout}
	}
	return &Client{
		base:         strings.TrimRight(baseURL, "/"),
		hc:           hc,
		Retries:      DefaultRetries,
		RetryBackoff: DefaultRetryBackoff,
	}
}

// BaseURL returns the server base URL this client speaks to.
func (c *Client) BaseURL() string { return c.base }

// WithTrace returns ctx carrying a request trace ID: every request made
// with the returned context sends it in api.HeaderTrace, so one routed
// operation shares a single ID across proxy and backend log lines. The
// serving tiers set this automatically for requests they forward; call
// it directly to stamp your own operations.
func WithTrace(ctx context.Context, id string) context.Context {
	return obs.WithTrace(ctx, id)
}

// setTrace stamps the outgoing request with the context's trace ID, when
// one is present.
func setTrace(ctx context.Context, req *http.Request) {
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(api.HeaderTrace, id)
	}
}

// Query answers one ranked query. k <= 0 requests the server default
// (api.DefaultK).
func (c *Client) Query(ctx context.Context, class, query string, k int) (api.QueryResponse, error) {
	var out api.QueryResponse
	err := c.postJSON(ctx, api.PathQuery, &api.QueryRequest{Class: class, Query: query, K: max(k, 0)}, &out, true)
	return out, err
}

// QueryBatch answers up to api.MaxBatch queries in one request, all on
// one serving epoch; the server ranks them one after another.
func (c *Client) QueryBatch(ctx context.Context, class string, queries []string, k int) (api.QueryResponse, error) {
	var out api.QueryResponse
	if len(queries) == 0 {
		return out, fmt.Errorf("client: empty query batch")
	}
	if len(queries) > api.MaxBatch {
		return out, fmt.Errorf("client: batch of %d queries exceeds limit %d", len(queries), api.MaxBatch)
	}
	err := c.postJSON(ctx, api.PathQuery, &api.QueryRequest{Class: class, Queries: queries, K: max(k, 0)}, &out, true)
	return out, err
}

// Proximity scores one node pair under a trained class.
func (c *Client) Proximity(ctx context.Context, class, x, y string) (api.ProximityResponse, error) {
	var out api.ProximityResponse
	err := c.postJSON(ctx, api.PathProximity, &api.ProximityRequest{Class: class, X: x, Y: y}, &out, true)
	return out, err
}

// Update applies a batch of live node/edge additions. Never retried: an
// update is not idempotent, and a retry after an ambiguous failure (the
// server may have applied it) could apply it twice. Pre-checks the
// api.MaxUpdate limit to save the round trip.
func (c *Client) Update(ctx context.Context, req api.UpdateRequest) (api.UpdateResponse, error) {
	var out api.UpdateResponse
	if len(req.Nodes)+len(req.Edges) == 0 {
		return out, fmt.Errorf("client: empty update")
	}
	if total := len(req.Nodes) + len(req.Edges); total > api.MaxUpdate {
		return out, fmt.Errorf("client: update of %d additions exceeds limit %d", total, api.MaxUpdate)
	}
	err := c.postJSON(ctx, api.PathUpdate, req, &out, false)
	return out, err
}

// Stats reads the serving epoch, LSN, graph counts and class inventory.
func (c *Client) Stats(ctx context.Context) (api.StatsResponse, error) {
	var out api.StatsResponse
	err := c.getJSON(ctx, api.PathStats, nil, &out, true)
	return out, err
}

// Health reads the liveness inventory.
func (c *Client) Health(ctx context.Context) (api.HealthResponse, error) {
	var out api.HealthResponse
	err := c.getJSON(ctx, api.PathHealthz, nil, &out, true)
	return out, err
}

// Classes lists the trained class names.
func (c *Client) Classes(ctx context.Context) ([]string, error) {
	var out api.ClassesResponse
	err := c.getJSON(ctx, api.PathClasses, nil, &out, true)
	return out.Classes, err
}

// Ready probes readiness. Unlike every other endpoint, /v1/readyz
// carries its body on both 200 (ready) and 503 (catching up / WAL
// failed), so a decodable 503 is NOT an error here: the response reports
// role, LSN and lag either way and resp.Ready() distinguishes the two.
// Errors mean the probe itself failed (unreachable, undecodable). Never
// retried — a probe's job is to observe the replica as it is right now.
func (c *Client) Ready(ctx context.Context) (api.ReadyResponse, error) {
	var out api.ReadyResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+api.PathReadyz, nil)
	if err != nil {
		return out, fmt.Errorf("client: %w", err)
	}
	setTrace(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, fmt.Errorf("client: readyz: %w", err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return out, decodeError(resp)
	}
	if err := decodeBody(resp.Body, &out); err != nil {
		return out, fmt.Errorf("client: readyz: undecodable body: %w", err)
	}
	return out, nil
}

// ReplicateSince reads WAL records with LSN > after, up to max records,
// long-polling up to wait when none are available. afterTerm is the term
// of the record the caller holds at LSN after (0 to skip the check): a
// server whose record at that LSN carries a different term answers 409
// api.CodeTermMismatch — the histories diverged and the caller must
// re-bootstrap from a snapshot instead of streaming. seenTerm is the
// newest term the caller has observed anywhere (0 for none): a deposed
// primary must not take the poll of a caller that knows of its successor
// as a receipt for its own writes. A quiet long poll
// must not be mistaken for a timeout: when wait approaches the
// http.Client's own Timeout (which caps the whole request regardless of
// context), the request runs on a timeout-free clone bounded by a
// context deadline of wait plus the usual budget instead.
func (c *Client) ReplicateSince(ctx context.Context, after, afterTerm, seenTerm uint64, max int, wait time.Duration) (api.SinceResponse, error) {
	var out api.SinceResponse
	q := url.Values{}
	q.Set("lsn", fmt.Sprint(after))
	if afterTerm > 0 {
		q.Set("term", fmt.Sprint(afterTerm))
	}
	if seenTerm > 0 {
		q.Set("seen_term", fmt.Sprint(seenTerm))
	}
	if max > 0 {
		q.Set("max", fmt.Sprint(max))
	}
	hc := c.hc
	if wait > 0 {
		q.Set("wait_ms", fmt.Sprint(wait.Milliseconds()))
		budget := hc.Timeout
		if budget <= 0 {
			budget = DefaultTimeout
		}
		if hc.Timeout > 0 && wait*2 >= hc.Timeout {
			clone := *hc
			clone.Timeout = 0
			hc = &clone
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wait+budget)
		defer cancel()
	}
	u := c.base + api.PathReplicateSince + "?" + q.Encode()
	err := c.doWith(ctx, hc, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		setTrace(ctx, req)
		return req, nil
	}, &out, false)
	return out, err
}

// ReplicateSnapshot streams an engine snapshot (the follower bootstrap /
// backup source). The caller owns the returned body and must Close it;
// decode it with semprox.LoadEngine.
func (c *Client) ReplicateSnapshot(ctx context.Context) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+api.PathReplicateSnapshot, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	setTrace(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: snapshot: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer drain(resp.Body)
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// getJSON issues one GET and decodes the 200 body into out.
func (c *Client) getJSON(ctx context.Context, path string, query url.Values, out any, retry bool) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	return c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		setTrace(ctx, req)
		return req, nil
	}, out, retry)
}

// postJSON issues one POST with a JSON body and decodes the 200 body
// into out.
func (c *Client) postJSON(ctx context.Context, path string, in, out any, retry bool) error {
	// Not pooled: the transport may still be reading the body after Do
	// returns.
	body, err := wire.AppendJSON(nil, in)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		setTrace(ctx, req)
		return req, nil
	}, out, retry)
}

// do runs the request, decoding 2xx into out and everything else through
// the error envelope. With retry, a transport error or a 5xx is retried
// up to c.Retries times (4xx never retries — the request itself is
// wrong, and resending an identical one cannot help). mkReq builds a
// fresh request per attempt so bodies are re-readable.
func (c *Client) do(ctx context.Context, mkReq func() (*http.Request, error), out any, retry bool) error {
	return c.doWith(ctx, c.hc, mkReq, out, retry)
}

// doWith is do on an explicit http.Client (the long-poll path swaps in a
// timeout-free clone).
func (c *Client) doWith(ctx context.Context, hc *http.Client, mkReq func() (*http.Request, error), out any, retry bool) error {
	attempts := 1
	if retry && c.Retries > 0 {
		attempts += c.Retries
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("client: %w (after %v)", ctx.Err(), lastErr)
			case <-time.After(c.RetryBackoff):
			}
		}
		req, err := mkReq()
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: %w", err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			err := decodeError(resp)
			drain(resp.Body)
			if resp.StatusCode >= 500 {
				lastErr = err
				continue
			}
			return err
		}
		err = decodeBody(resp.Body, out)
		drain(resp.Body)
		if err != nil {
			return fmt.Errorf("client: undecodable response: %w", err)
		}
		return nil
	}
	return lastErr
}

// decodeBody reads one bounded response body into a pooled buffer and
// decodes it: the two hot response types through the api codec's forward
// pass, every other type through encoding/json. The body must be exactly
// one JSON value — anything but whitespace after it is an error.
func decodeBody(body io.Reader, out any) error {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	data, err := wire.ReadAll(*bp, body, wire.MaxResponseBytes)
	*bp = data
	if err != nil {
		return err
	}
	switch out := out.(type) {
	case *api.QueryResponse:
		return api.UnmarshalQueryResponse(data, out)
	case *api.ProximityResponse:
		return api.UnmarshalProximityResponse(data, out)
	}
	return json.Unmarshal(data, out)
}

// decodeError turns a non-2xx response into *api.Error: the structured
// envelope when the server sent one, a synthesized CodeInternal error
// (carrying a body excerpt) when it did not — so callers always get the
// same error type with the HTTP status attached. When the response
// carries a trace ID (api.HeaderTrace — every instrumented tier stamps
// it, error envelopes included), the message carries it too, so a failed
// routed read is greppable across proxy and backend log lines. The
// suffix is added once: an error relayed through the edge proxy arrives
// already stamped with the same propagated ID.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e *api.Error
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		e = &env.Error
		e.Status = resp.StatusCode
	} else {
		e = api.Errorf(resp.StatusCode, api.CodeInternal,
			"server returned %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if trace := resp.Header.Get(api.HeaderTrace); trace != "" && !strings.Contains(e.Message, "[trace ") {
		e.Message += " [trace " + trace + "]"
	}
	return e
}

// Metrics fetches the server's Prometheus text exposition from /metrics,
// under the same retry/backoff discipline as the typed reads (transport
// errors and 5xx retry, 4xx does not).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	attempts := 1 + max(c.Retries, 0)
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			select {
			case <-ctx.Done():
				return "", fmt.Errorf("client: %w (after %v)", ctx.Err(), lastErr)
			case <-time.After(c.RetryBackoff):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
		if err != nil {
			return "", fmt.Errorf("client: %w", err)
		}
		setTrace(ctx, req)
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: metrics: %w", err)
			if ctx.Err() != nil {
				return "", lastErr
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			err := decodeError(resp)
			drain(resp.Body)
			if resp.StatusCode >= 500 {
				lastErr = err
				continue
			}
			return "", err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		drain(resp.Body)
		if err != nil {
			lastErr = fmt.Errorf("client: metrics: %w", err)
			continue
		}
		return string(body), nil
	}
	return "", lastErr
}

// drain consumes and closes a response body so the underlying connection
// is reusable.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20)) //nolint:errcheck // best-effort
	body.Close()
}
