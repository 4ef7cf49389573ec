// Package wire holds the HTTP mechanics of the /v1 JSON contract that
// every tier shares — the one implementation of how a body is rendered,
// framed and strictly decoded — so internal/server and internal/proxy are
// byte-identical by construction instead of by mirrored code, and the
// client reads bodies the way the servers write them.
//
// A response is encoded completely before anything is sent: compact JSON
// (the api package's AppendJSON codec for the hot types, encoding/json
// for the rest) plus the newline json.Encoder would add, into a pooled
// buffer; then Content-Length, the status and the body go out in one
// write. A value that cannot be encoded is therefore a 500 envelope,
// never a committed 200 with an empty body.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/api"
)

// maxPooled bounds the buffers the pool keeps: a snapshot-sized body must
// not pin its buffer for the life of the process.
const maxPooled = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuf returns an empty pooled buffer. Store the grown slice back
// through the pointer before PutBuf so the capacity is kept.
func GetBuf() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuf returns a buffer to the pool. Nothing may reference its bytes
// afterwards.
func PutBuf(bp *[]byte) {
	if cap(*bp) <= maxPooled {
		bufPool.Put(bp)
	}
}

// MaxResponseBytes bounds a response body read from a daemon, by the
// client and by the proxy (a replication batch is the large case).
const MaxResponseBytes = 256 << 20

// ReadAll appends r to dst until EOF or until limit bytes were appended,
// whichever comes first, and returns the extended slice.
func ReadAll(dst []byte, r io.Reader, limit int64) ([]byte, error) {
	start := len(dst)
	for int64(len(dst)-start) < limit {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):cap(dst)]
		if rest := limit - int64(len(dst)-start); int64(len(room)) > rest {
			room = room[:rest]
		}
		n, err := r.Read(room)
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendJSON appends the compact JSON encoding of v: through the api
// codec when v has one, through encoding/json otherwise. The two agree
// byte for byte, so which one ran is not observable.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(interface {
		AppendJSON([]byte) ([]byte, error)
	}); ok {
		return a.AppendJSON(dst)
	}
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// jsonType is shared by every response: header values are never mutated
// in place, so one slice serves all of them without an allocation each.
var jsonType = []string{"application/json"}

// WriteJSON writes v with the given status. Pass hot response types by
// pointer so they reach their codec.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	bp := GetBuf()
	defer PutBuf(bp)
	body, err := AppendJSON(*bp, v)
	if err != nil {
		status = http.StatusInternalServerError
		env := api.ErrorEnvelope{Error: *api.Errorf(status, api.CodeInternal, "encoding response: %v", err)}
		body, _ = AppendJSON((*bp)[:0], env) // two strings: cannot fail
	}
	body = append(body, '\n')
	*bp = body
	w.Header()["Content-Type"] = jsonType
	WriteBody(w, status, body)
}

// WriteBody sends an already encoded body under status with its length
// declared, so no response is chunked.
func WriteBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // the client is gone if this fails
}

// WriteErr writes err as the structured error envelope.
func WriteErr(w http.ResponseWriter, err *api.Error) {
	WriteJSON(w, err.Status, api.ErrorEnvelope{Error: *err})
}

// NotFound is the catch-all both tiers mount on "/": a path that is not
// an endpoint gets the envelope, not the mux's plain-text 404.
func NotFound(w http.ResponseWriter, r *http.Request) {
	WriteErr(w, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no endpoint at %s", r.URL.Path))
}

// ReadHeaderTimeout is how long both daemons give a connection to send a
// request's headers, so a client that never finishes them cannot hold it
// forever. Headers only: the long-polled replication feed and snapshot
// streaming rule out a bound on the whole read or the write.
const ReadHeaderTimeout = 10 * time.Second

// ValidBaseURL rejects a value that cannot name a daemon: every flag that
// takes another tier's address validates it here before anything dials.
func ValidBaseURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("base URL %q must be http or https", s)
	}
	if u.Host == "" {
		return fmt.Errorf("base URL %q has no host", s)
	}
	return nil
}

// BaseURLs splits a comma-separated list of base URLs, trims each, skips
// empty elements and validates the rest.
func BaseURLs(csv string) ([]string, error) {
	var urls []string
	for _, u := range strings.Split(csv, ",") {
		if u = strings.TrimSpace(u); u != "" {
			if err := ValidBaseURL(u); err != nil {
				return nil, err
			}
			urls = append(urls, u)
		}
	}
	return urls, nil
}

// MetricsPath serves the Prometheus exposition. Unversioned on purpose:
// it is operational surface, not part of the /v1 wire contract.
const MetricsPath = "/metrics"

// knownPaths bounds metric label cardinality: /v1 paths and /metrics
// keep their names, everything else (typos, scans) collapses.
var knownPaths = func() map[string]bool {
	m := map[string]bool{MetricsPath: true}
	for _, p := range api.Paths() {
		m[p] = true
	}
	return m
}()

// PathLabel maps a request path to its metric label value: the path itself
// for a mounted one, "other" for anything else.
func PathLabel(p string) string {
	if knownPaths[p] {
		return p
	}
	return "other"
}

// MethodCheck 405s anything but the allowed methods.
func MethodCheck(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	for _, m := range allowed {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	WriteErr(w, api.Errorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
		"method %s not allowed on %s", r.Method, r.URL.Path))
	return false
}

func errBadRequest(format string, args ...any) *api.Error {
	return api.Errorf(http.StatusBadRequest, api.CodeBadRequest, format, args...)
}

// DecodeStrict decodes one JSON object, rejecting unknown fields, trailing
// garbage and oversized bodies with client errors. The body is read whole
// into a pooled buffer; the two hot request types are first offered to
// the api codec's forward pass, which accepts only the canonical form a
// valid request has — every rejection, and its message, still comes from
// encoding/json below.
func DecodeStrict(w http.ResponseWriter, r *http.Request, v any) *api.Error {
	bp := GetBuf()
	defer PutBuf(bp)
	body, err := ReadAll(*bp, http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), math.MaxInt64)
	*bp = body
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errBadRequest("request body exceeds %d bytes", api.MaxBodyBytes)
		}
		return errBadRequest("malformed JSON: %v", err)
	}
	switch v := v.(type) {
	case *api.QueryRequest:
		if api.ScanQueryRequest(body, v) {
			return nil
		}
	case *api.ProximityRequest:
		if api.ScanProximityRequest(body, v) {
			return nil
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("malformed JSON: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errBadRequest("trailing data after JSON body")
	}
	return nil
}
