package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/api"
)

// TestMetricsEndpoint: /metrics renders the server registry (per-endpoint
// request counters, engine position gauges) merged with the process
// default (engine apply histogram), in parseable Prometheus text.
func TestMetricsEndpoint(t *testing.T) {
	s, _, _ := trainedServer(t)
	// Drive one query so per-endpoint series exist.
	if rec := do(t, s, http.MethodGet, api.PathQuery+"?class=classmate&query=Kate", ""); rec.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
	}
	rec := do(t, s, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	expo := rec.Body.String()
	for _, series := range []string{
		`semprox_http_requests_total{code="2xx",path="/v1/query"}`,
		"semprox_engine_epoch",
		"semprox_engine_lsn",
		"semprox_engine_apply_seconds", // default-registry family, merged in
	} {
		if !strings.Contains(expo, series) {
			t.Errorf("exposition lacks %s", series)
		}
	}
	// Writes are rejected: the exposition is a read-only surface.
	if rec := do(t, s, http.MethodPost, "/metrics", "{}"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

// TestTraceEchoedOnError: the response trace header is set before the
// handler runs, so error envelopes carry it — accepted from the caller
// when present, minted when absent.
func TestTraceEchoedOnError(t *testing.T) {
	s, _, _ := trainedServer(t)
	r := httptest.NewRequest(http.MethodGet, api.PathQuery, nil) // missing params: 400
	r.Header.Set(api.HeaderTrace, "trace-err-1")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	if got := w.Header().Get(api.HeaderTrace); got != "trace-err-1" {
		t.Fatalf("error response trace = %q, want the caller's", got)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, api.PathQuery, nil))
	if w.Header().Get(api.HeaderTrace) == "" {
		t.Fatal("server minted no trace for a bare request")
	}
}

// TestCallerTraceIsBounded: a caller's trace ID longer than 64 bytes or
// holding bytes outside [A-Za-z0-9._:-] is not echoed or logged; the
// request gets a minted ID instead.
func TestCallerTraceIsBounded(t *testing.T) {
	s, _, _ := trainedServer(t)
	var buf bytes.Buffer
	s.SetRequestLog(slog.New(slog.NewTextHandler(&buf, nil)), 0)
	for _, id := range []string{strings.Repeat("t", 4096), "a b", "x\x00y", "ünicode"} {
		buf.Reset()
		r := httptest.NewRequest(http.MethodGet, api.PathHealthz, nil)
		r.Header.Set(api.HeaderTrace, id)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		got := w.Header().Get(api.HeaderTrace)
		if len(got) != 16 || strings.Contains(buf.String(), id) || !strings.Contains(buf.String(), "trace="+got) {
			t.Errorf("caller trace %q: echoed %q, logged %s; want a minted 16-char ID in both", id, got, buf.String())
		}
	}
}

// TestRequestLogLine: SetRequestLog emits one structured line per request
// with the trace ID and canonical fields, escalating to Warn past the
// slow threshold.
func TestRequestLogLine(t *testing.T) {
	s, _, _ := trainedServer(t)
	var buf bytes.Buffer
	s.SetRequestLog(slog.New(slog.NewTextHandler(&buf, nil)), 0)
	r := httptest.NewRequest(http.MethodGet, api.PathHealthz, nil)
	r.Header.Set(api.HeaderTrace, "trace-log-1")
	s.ServeHTTP(httptest.NewRecorder(), r)
	line := buf.String()
	for _, want := range []string{
		"component=server", "path=/v1/healthz", "status=200", "trace=trace-log-1",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("log line lacks %q: %s", want, line)
		}
	}
	if strings.Contains(line, "slow=true") {
		t.Errorf("zero threshold escalated: %s", line)
	}

	buf.Reset()
	s.SetRequestLog(slog.New(slog.NewTextHandler(&buf, nil)), time.Nanosecond)
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, api.PathHealthz, nil))
	if line := buf.String(); !strings.Contains(line, "slow=true") || !strings.Contains(line, "level=WARN") {
		t.Errorf("1ns threshold did not escalate: %s", line)
	}
}

// TestReadStagesObserved: a query and a proximity each time their five
// stages — decode, resolve, rank, encode, write — into one labeled
// histogram family, and a slow read's WARN line carries them; a request
// that times no stage (healthz) exposes none and logs none.
func TestReadStagesObserved(t *testing.T) {
	s, _, _ := trainedServer(t)
	var buf bytes.Buffer
	s.SetRequestLog(slog.New(slog.NewTextHandler(&buf, nil)), time.Nanosecond)
	stages := []string{"decode", "resolve", "rank", "encode", "write"}
	for _, target := range []string{
		api.PathQuery + "?class=classmate&query=Kate",
		api.PathProximity + "?class=classmate&x=Kate&y=Jay",
	} {
		buf.Reset()
		if rec := do(t, s, http.MethodGet, target, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		for _, st := range stages {
			if !strings.Contains(buf.String(), " "+st+"_ms=") {
				t.Errorf("%s: the slow line lacks stage %s: %s", target, st, buf.String())
			}
		}
	}
	buf.Reset()
	do(t, s, http.MethodGet, api.PathHealthz, "")
	if strings.Contains(buf.String(), "_ms=") {
		t.Errorf("healthz logged stages: %s", buf.String())
	}
	expo := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	for _, path := range []string{api.PathQuery, api.PathProximity} {
		for _, st := range stages {
			if series := `semprox_http_stage_seconds_count{path="` + path + `",stage="` + st + `"} 1`; !strings.Contains(expo, series) {
				t.Errorf("exposition lacks %s", series)
			}
		}
	}
	if strings.Contains(expo, `semprox_http_stage_seconds_count{path="`+api.PathHealthz) {
		t.Error("healthz exposes stages")
	}
}
