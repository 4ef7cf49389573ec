package obs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

const testTraceHeader = "X-Test-Trace"

func wrapped(reg *Registry, logger *slog.Logger, slow time.Duration, inner http.HandlerFunc) http.Handler {
	return WrapHTTP(inner, HTTPOptions{
		Registry:      reg,
		TraceHeader:   testTraceHeader,
		Component:     "test",
		Logger:        logger,
		SlowThreshold: slow,
		PathLabel: func(p string) string {
			if p == "/known" {
				return "/known"
			}
			return "other"
		},
		EpochHeader: "X-Test-Epoch",
		CacheHeader: "X-Test-Cache",
	})
}

func TestMiddlewareMintsTrace(t *testing.T) {
	reg := NewRegistry()
	var seen string
	h := wrapped(reg, nil, 0, func(w http.ResponseWriter, r *http.Request) {
		seen = TraceID(r.Context())
		w.WriteHeader(200)
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/known", nil))
	if seen == "" {
		t.Fatal("handler saw no trace ID in context")
	}
	if got := rec.Header().Get(testTraceHeader); got != seen {
		t.Fatalf("response trace header %q != context trace %q", got, seen)
	}
}

func TestMiddlewareAcceptsCallerTrace(t *testing.T) {
	h := wrapped(NewRegistry(), nil, 0, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(204)
	})
	req := httptest.NewRequest("GET", "/known", nil)
	req.Header.Set(testTraceHeader, "caller-id-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(testTraceHeader); got != "caller-id-1" {
		t.Fatalf("caller trace not propagated: %q", got)
	}
}

// TestMiddlewareBoundsCallerTrace: a caller's trace ID is kept only when
// it is 1–64 bytes of [A-Za-z0-9._:-]; anything else is replaced by a
// minted one, on the response, in the context and on the log line.
func TestMiddlewareBoundsCallerTrace(t *testing.T) {
	for id, keep := range map[string]bool{
		"trace-log-1": true, "debug-42": true, "a:b.c_d-E9": true,
		strings.Repeat("x", 64): true,
		strings.Repeat("x", 65): false,
		"has space":             false,
		"new\nline":             false,
		`quo"te`:                false,
		"a=b":                   false,
		"ünïcode":               false,
	} {
		var buf bytes.Buffer
		var seen string
		h := wrapped(NewRegistry(), slog.New(slog.NewTextHandler(&buf, nil)), 0, func(w http.ResponseWriter, r *http.Request) {
			seen = TraceID(r.Context())
		})
		req := httptest.NewRequest("GET", "/known", nil)
		req.Header.Set(testTraceHeader, id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get(testTraceHeader)
		if keep != (got == id) || seen != got || !validTrace(got) {
			t.Errorf("caller trace %q: echoed %q, handler saw %q; want it kept = %v", id, got, seen, keep)
		}
		if !strings.HasSuffix(buf.String(), " trace="+got+"\n") {
			t.Errorf("caller trace %q: log line lacks trace=%s: %s", id, got, buf.String())
		}
	}
}

// TestExplicitTraceWins: inside a request, TraceID reads the request's
// record unless a WithTrace sits closer in the context.
func TestExplicitTraceWins(t *testing.T) {
	h := wrapped(NewRegistry(), nil, 0, func(w http.ResponseWriter, r *http.Request) {
		if got := TraceID(WithTrace(r.Context(), "inner")); got != "inner" {
			t.Errorf("TraceID under WithTrace = %q, want inner", got)
		}
		if got := TraceID(r.Context()); got != "outer" {
			t.Errorf("TraceID = %q, want the request's", got)
		}
	})
	req := httptest.NewRequest("GET", "/known", nil)
	req.Header.Set(testTraceHeader, "outer")
	h.ServeHTTP(httptest.NewRecorder(), req)
}

func TestMiddlewareTraceOnErrorResponse(t *testing.T) {
	h := wrapped(NewRegistry(), nil, 0, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusBadRequest)
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/known", nil))
	if rec.Code != 400 {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get(testTraceHeader) == "" {
		t.Fatal("error response missing trace header")
	}
}

func TestMiddlewareMetrics(t *testing.T) {
	reg := NewRegistry()
	h := wrapped(reg, nil, 0, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/known" {
			w.WriteHeader(200)
			return
		}
		http.Error(w, "nope", http.StatusNotFound)
	})
	for i := 0; i < 3; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/known", nil))
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/missing", nil))
	series := parseExposition(t, gatherText(t, reg))
	if got := series[MetricHTTPRequests+`{code="2xx",path="/known"}`]; got != 3 {
		t.Fatalf("2xx counter = %v, want 3", got)
	}
	if got := series[MetricHTTPRequests+`{code="4xx",path="other"}`]; got != 1 {
		t.Fatalf("4xx counter = %v, want 1", got)
	}
	if got := series[MetricHTTPLatency+`_count{path="/known"}`]; got != 3 {
		t.Fatalf("latency count = %v, want 3", got)
	}
}

// TestMiddlewareMetricsResolveChildrenOnce: recording a request must not
// look its series up again (a lookup builds a label key under two
// mutexes), and an unseen status class must not appear in the exposition
// before it has counted something.
func TestMiddlewareMetricsResolveChildrenOnce(t *testing.T) {
	reg := NewRegistry()
	m := &httpMetrics{reg: reg, by: make(map[string]*endpointMetrics)}
	m.observe("/known", 200, time.Millisecond)
	if a := testing.AllocsPerRun(100, func() { m.observe("/known", 200, time.Millisecond) }); a != 0 {
		t.Fatalf("recording a request allocates %.0f times, want 0", a)
	}
	series := parseExposition(t, gatherText(t, reg))
	if got := series[MetricHTTPRequests+`{code="2xx",path="/known"}`]; got != 102 {
		t.Fatalf("2xx counter = %v, want 102", got)
	}
	if _, ok := series[MetricHTTPRequests+`{code="5xx",path="/known"}`]; ok {
		t.Fatal("a status class that never occurred is exposed")
	}
	m.observe("/known", 503, time.Millisecond)
	if got := parseExposition(t, gatherText(t, reg))[MetricHTTPRequests+`{code="5xx",path="/known"}`]; got != 1 {
		t.Fatalf("5xx counter = %v, want 1", got)
	}
}

// logLines decodes a JSON slog buffer into raw lines.
func logLines(buf *bytes.Buffer) []string {
	return strings.Split(strings.TrimSpace(buf.String()), "\n")
}

func TestMiddlewareLogLine(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := wrapped(NewRegistry(), logger, 0, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Test-Epoch", "7")
		w.Header().Set("X-Test-Cache", "hit")
		AddAttrs(r.Context(), slog.String("backend", "http://b1"))
		w.WriteHeader(200)
	})
	req := httptest.NewRequest("GET", "/known", nil)
	req.Header.Set(testTraceHeader, "trace-xyz")
	h.ServeHTTP(httptest.NewRecorder(), req)

	lines := logLines(&buf)
	if len(lines) != 1 {
		t.Fatalf("want exactly one log line, got %d: %v", len(lines), lines)
	}
	for _, want := range []string{
		`"component":"test"`, `"method":"GET"`, `"path":"/known"`,
		`"status":200`, `"trace":"trace-xyz"`, `"epoch":"7"`,
		`"cache":"hit"`, `"backend":"http://b1"`, `"level":"INFO"`, `"ms":`,
	} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("log line missing %s:\n%s", want, lines[0])
		}
	}
}

// TestMiddlewareLineOrder pins the request line's fields and their order,
// through the daemons' handler, which writes what slog.TextHandler does.
func TestMiddlewareLineOrder(t *testing.T) {
	var buf bytes.Buffer
	w := NewLineWriter(&buf)
	h := wrapped(NewRegistry(), slog.New(NewLineHandler(w)), time.Hour, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Test-Epoch", "7")
		w.Header().Set("X-Test-Cache", "hit")
		AddAttrs(r.Context(), slog.String("backend", "http://b1"), slog.Bool("hedged", false))
		w.WriteHeader(200)
	})
	req := httptest.NewRequest("POST", "/known", nil)
	req.Header.Set(testTraceHeader, "trace-xyz")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := regexp.MustCompile(`^time=\S+ level=INFO msg=request component=test method=POST path=/known status=200 ` +
		`ms=[0-9.e-]+ trace=trace-xyz epoch=7 cache=hit backend=http://b1 hedged=false\n$`)
	if !want.MatchString(buf.String()) {
		t.Fatalf("request line %q does not match %s", buf.String(), want)
	}
}

func TestMiddlewareSlowWarns(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := wrapped(NewRegistry(), logger, time.Millisecond, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * time.Millisecond)
		w.WriteHeader(200)
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/known", nil))
	line := logLines(&buf)[0]
	if !strings.Contains(line, `"level":"WARN"`) || !strings.Contains(line, `"slow":true`) {
		t.Fatalf("slow request did not warn:\n%s", line)
	}
}

func TestMiddlewareNoLoggerStaysQuiet(t *testing.T) {
	h := wrapped(NewRegistry(), nil, 0, func(w http.ResponseWriter, r *http.Request) {
		// AddAttrs without a bag must be a no-op, not a panic.
		AddAttrs(r.Context(), slog.String("k", "v"))
		w.WriteHeader(200)
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/known", nil))
}

func TestStatusWriterDefaultsAndUnwrap(t *testing.T) {
	reg := NewRegistry()
	h := wrapped(reg, nil, 0, func(w http.ResponseWriter, r *http.Request) {
		// Implicit 200 via Write, plus the Flusher passthrough.
		if _, err := w.Write([]byte("ok")); err != nil {
			t.Errorf("write: %v", err)
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		rc := http.NewResponseController(w)
		if err := rc.Flush(); err != nil {
			t.Errorf("ResponseController.Flush through Unwrap: %v", err)
		}
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/known", nil))
	if rec.Code != 200 || rec.Body.String() != "ok" {
		t.Fatalf("got %d %q", rec.Code, rec.Body.String())
	}
	series := parseExposition(t, gatherText(t, reg))
	if series[MetricHTTPRequests+`{code="2xx",path="/known"}`] != 1 {
		t.Fatal("implicit 200 not counted as 2xx")
	}
}

func TestWithTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("empty ctx carries a trace")
	}
	if WithTrace(ctx, "") != ctx {
		t.Fatal("WithTrace(\"\") should be a no-op")
	}
	if got := TraceID(WithTrace(ctx, "abc")); got != "abc" {
		t.Fatalf("TraceID = %q", got)
	}
}

func TestStatusClass(t *testing.T) {
	for code, want := range map[int]string{200: "2xx", 204: "2xx", 301: "3xx", 404: "4xx", 500: "5xx", 503: "5xx"} {
		if got := statusClasses[statusClass(code)]; got != want {
			t.Fatalf("statusClass(%d) = %s, want %s", code, got, want)
		}
	}
}
