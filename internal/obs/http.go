// HTTP instrumentation middleware, shared by internal/server and
// internal/proxy: per-endpoint latency histograms and status-class
// counters on the wrapped registry, trace minting/propagation in
// api.HeaderTrace, and an optional structured per-request log line
// (endpoint, status, latency, trace, epoch, cache disposition, plus
// whatever attrs the handler added via AddAttrs) with a slow-query
// threshold that escalates Info to Warn, and the stages a read's handler
// timed (Stages) in a labeled histogram family and on that WARN line.
// Everything one request needs is one record (see request), carried as one
// context value.
package obs

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
)

// Metric family names the middleware records. One name across server and
// proxy: each owns its registry, so the same family name on different
// /metrics endpoints never collides.
const (
	MetricHTTPRequests = "semprox_http_requests_total"
	MetricHTTPLatency  = "semprox_http_request_seconds"
	MetricHTTPStage    = "semprox_http_stage_seconds"
)

// SlowRequest is both daemons' SlowThreshold: a request that takes at
// least this long logs at WARN.
const SlowRequest = 500 * time.Millisecond

// HTTPOptions configures WrapHTTP. Zero-value fields disable the
// corresponding feature.
type HTTPOptions struct {
	// Registry receives per-endpoint metrics; nil skips metrics.
	Registry *Registry
	// Component tags log lines ("server", "proxy").
	Component string
	// Logger emits one line per request; nil disables request logging
	// (the daemons enable it, in-process test stacks stay quiet).
	Logger *slog.Logger
	// SlowThreshold escalates the log line to Warn when the request
	// takes at least this long; 0 never escalates.
	SlowThreshold time.Duration
	// PathLabel bounds metric label cardinality by canonicalizing the
	// request path; nil uses the raw path.
	PathLabel func(string) string
	// CacheHeader names a response header whose value, when the handler
	// sets it, is echoed into the log line as the edge cache's hit/miss
	// disposition; "" echoes none. The epoch a read served at
	// (api.HeaderEpoch) is always echoed.
	CacheHeader string
}

// statusWriter captures the status code without disturbing the wrapped
// ResponseWriter; Unwrap keeps http.ResponseController (and any Flusher
// type-assertions via it) working for the streaming snapshot endpoint.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// statusClasses are the values of the requests counter's code label;
// statusClass indexes them.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// statusClass maps a status code to its index in statusClasses.
func statusClass(code int) int {
	switch {
	case code >= 500:
		return 3
	case code >= 400:
		return 2
	case code >= 300:
		return 1
	default:
		return 0
	}
}

// endpointMetrics are one path label's registry children, resolved once:
// a lookup builds a label key (copy, sort, concatenation) under two
// mutexes, which is per-scrape work, not per-request work. A status
// class's counter is created when the class is first seen, so the
// exposition lists exactly the series that have counted something.
type endpointMetrics struct {
	latency *Histogram
	codes   [len(statusClasses)]atomic.Pointer[Counter]
	stages  [numStages]atomic.Pointer[Histogram]
}

// httpMetrics caches endpointMetrics by path label. PathLabel bounds
// the label set, hence the map.
type httpMetrics struct {
	reg *Registry
	mu  sync.RWMutex
	by  map[string]*endpointMetrics
}

func (m *httpMetrics) observe(path string, status int, dur time.Duration, rec *request) {
	m.mu.RLock()
	e := m.by[path]
	m.mu.RUnlock()
	if e == nil {
		e = &endpointMetrics{latency: m.reg.Histogram(MetricHTTPLatency,
			"Request latency by canonical endpoint.", Seconds, L("path", path))}
		m.mu.Lock()
		if prev := m.by[path]; prev != nil {
			e = prev
		} else {
			m.by[path] = e
		}
		m.mu.Unlock()
	}
	e.latency.ObserveDuration(dur)
	class := statusClass(status)
	c := e.codes[class].Load()
	if c == nil {
		c = m.reg.Counter(MetricHTTPRequests,
			"Requests served, by canonical endpoint and status class.",
			L("path", path), L("code", statusClasses[class]))
		e.codes[class].Store(c)
	}
	c.Inc()
	for st := range numStages {
		if rec.marked&(1<<st) == 0 {
			continue
		}
		h := e.stages[st].Load()
		if h == nil {
			h = m.reg.Histogram(MetricHTTPStage,
				"Time a read spent in each stage its handler timed, by canonical endpoint.",
				Seconds, L("path", path), L("stage", stageNames[st]))
			e.stages[st].Store(h)
		}
		h.ObserveDuration(rec.stage[st])
	}
}

// WrapHTTP wraps next with tracing, metrics, and request logging per o.
// Every request carries a trace ID in api.HeaderTrace: the caller's when
// it is valid, else a fresh one. The response header is set before the
// handler runs, so error envelopes carry it too.
func WrapHTTP(next http.Handler, o HTTPOptions) http.Handler {
	var metrics *httpMetrics
	if o.Registry != nil {
		metrics = &httpMetrics{reg: o.Registry, by: make(map[string]*endpointMetrics)}
	}
	// The request log's handler, with the component formatted once: a
	// handler writes WithAttrs' attributes right after the message, which
	// is where the line carries it.
	var lines slog.Handler
	if o.Logger != nil {
		lines = o.Logger.Handler()
		if o.Component != "" {
			lines = lines.WithAttrs([]slog.Attr{slog.String("component", o.Component)})
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &request{statusWriter: statusWriter{ResponseWriter: w}, log: lines != nil, start: start}
		rec.trace = r.Header.Get(api.HeaderTrace)
		if !validTrace(rec.trace) {
			rec.trace = NewTraceID()
		}
		w.Header().Set(api.HeaderTrace, rec.trace)
		ctx := context.WithValue(r.Context(), requestKey, rec)
		next.ServeHTTP(&rec.statusWriter, r.WithContext(ctx))

		end := time.Now()
		dur := end.Sub(start)
		status := rec.status
		if status == 0 { // handler wrote nothing: net/http sends 200
			status = http.StatusOK
		}
		path := r.URL.Path
		if o.PathLabel != nil {
			path = o.PathLabel(path)
		}
		if metrics != nil {
			metrics.observe(path, status, dur, rec)
		}
		if lines != nil {
			logRequest(ctx, lines, o, rec, r, status, end, dur)
		}
	})
}

// logRequest writes the request's line: straight to the handler h, in a
// Record without a pc, so no request pays for runtime.Callers.
func logRequest(ctx context.Context, h slog.Handler, o HTTPOptions, rec *request, r *http.Request,
	status int, end time.Time, dur time.Duration) {
	level := slog.LevelInfo
	slow := o.SlowThreshold > 0 && dur >= o.SlowThreshold
	if slow {
		level = slog.LevelWarn
	}
	if !h.Enabled(ctx, level) {
		return
	}
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("ms", float64(dur.Microseconds())/1e3),
	)
	attrs = append(attrs, slog.String("trace", rec.trace))
	if v := rec.Header().Get(api.HeaderEpoch); v != "" {
		attrs = append(attrs, slog.String("epoch", v))
	}
	if o.CacheHeader != "" {
		if v := rec.Header().Get(o.CacheHeader); v != "" {
			attrs = append(attrs, slog.String("cache", v))
		}
	}
	attrs = append(attrs, rec.takeAttrs()...)
	if slow {
		for st := range numStages {
			if rec.marked&(1<<st) != 0 {
				attrs = append(attrs, slog.Float64(stageNames[st]+"_ms", float64(rec.stage[st].Microseconds())/1e3))
			}
		}
		attrs = append(attrs, slog.Bool("slow", true))
	}
	line := slog.NewRecord(end, level, "request", 0)
	line.AddAttrs(attrs...)
	h.Handle(ctx, line) //nolint:errcheck // a failed log write is not the request's failure
}

// Stage is one step of a read that its handler times (Stages.Mark).
type Stage uint8

// The stages of a read, in the order a handler passes them.
const (
	StageDecode  Stage = iota // routing, the method check and the parsed request
	StageResolve              // the class and the node names on the pinned epoch
	StageRank                 // the engine's answer: the ranked scan, or π(x, y)
	StageEncode               // the response rendered and encoded
	StageWrite                // the status, headers and body handed to the connection
	numStages
)

// stageNames are the stage label's values, indexed by Stage.
var stageNames = [numStages]string{"decode", "resolve", "rank", "encode", "write"}

// Stages is the clock a handler times the stages of its read with. Each
// Mark charges the time since the one before it — since the request
// arrived, for the first — to a stage of the request's record, which
// WrapHTTP observes into MetricHTTPStage and writes on a slow request's
// line. The zero Stages, of a request WrapHTTP did not record, marks
// nothing.
type Stages struct{ rec *request }

// StagesOf returns the stage clock of the request ctx belongs to.
func StagesOf(ctx context.Context) Stages {
	rec, _ := ctx.Value(requestKey).(*request)
	return Stages{rec}
}

// Mark charges the time since the last mark to stage st. It reads the
// monotonic clock alone (time.Since), half the cost of a time.Now.
func (c Stages) Mark(st Stage) {
	if c.rec == nil {
		return
	}
	at := time.Since(c.rec.start)
	c.rec.stage[st] += at - c.rec.mark
	c.rec.mark, c.rec.marked = at, c.rec.marked|1<<st
}
