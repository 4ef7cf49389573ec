// HTTP instrumentation middleware, shared by internal/server and
// internal/proxy: per-endpoint latency histograms and status-class
// counters on the wrapped registry, trace minting/propagation via a
// configurable header, and an optional structured per-request log line
// (endpoint, status, latency, trace, epoch, cache disposition, plus
// whatever attrs the handler added via AddAttrs) with a slow-query
// threshold that escalates Info to Warn.
package obs

import (
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Metric family names the middleware records. One name across server and
// proxy: each owns its registry, so the same family name on different
// /metrics endpoints never collides.
const (
	MetricHTTPRequests = "semprox_http_requests_total"
	MetricHTTPLatency  = "semprox_http_request_seconds"
)

// HTTPOptions configures WrapHTTP. Zero-value fields disable the
// corresponding feature.
type HTTPOptions struct {
	// Registry receives per-endpoint metrics; nil skips metrics.
	Registry *Registry
	// TraceHeader names the request/response trace header
	// (api.HeaderTrace); "" disables tracing. The response header is set
	// before the handler runs, so error envelopes carry it too.
	TraceHeader string
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
	// EpochHeader and CacheHeader name response headers whose values,
	// when set by the handler, are echoed into the log line (the epoch a
	// read served at; the edge cache hit/miss disposition).
	EpochHeader, CacheHeader string
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
}

// httpMetrics caches endpointMetrics by path label. PathLabel bounds
// the label set, hence the map.
type httpMetrics struct {
	reg *Registry
	mu  sync.RWMutex
	by  map[string]*endpointMetrics
}

func (m *httpMetrics) observe(path string, status int, dur time.Duration) {
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
}

// WrapHTTP wraps next with tracing, metrics, and request logging per o.
func WrapHTTP(next http.Handler, o HTTPOptions) http.Handler {
	var metrics *httpMetrics
	if o.Registry != nil {
		metrics = &httpMetrics{reg: o.Registry, by: make(map[string]*endpointMetrics)}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		trace := ""
		if o.TraceHeader != "" {
			trace = r.Header.Get(o.TraceHeader)
			if trace == "" {
				trace = NewTraceID()
			}
			w.Header().Set(o.TraceHeader, trace)
			ctx = WithTrace(ctx, trace)
		}
		var bag *attrBag
		if o.Logger != nil {
			ctx, bag = withAttrBag(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))

		dur := time.Since(start)
		status := sw.status
		if status == 0 { // handler wrote nothing: net/http sends 200
			status = http.StatusOK
		}
		path := r.URL.Path
		if o.PathLabel != nil {
			path = o.PathLabel(path)
		}
		if metrics != nil {
			metrics.observe(path, status, dur)
		}
		if o.Logger == nil {
			return
		}
		attrs := make([]slog.Attr, 0, 12)
		if o.Component != "" {
			attrs = append(attrs, slog.String("component", o.Component))
		}
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("ms", float64(dur.Microseconds())/1e3),
		)
		if trace != "" {
			attrs = append(attrs, slog.String("trace", trace))
		}
		if o.EpochHeader != "" {
			if v := sw.Header().Get(o.EpochHeader); v != "" {
				attrs = append(attrs, slog.String("epoch", v))
			}
		}
		if o.CacheHeader != "" {
			if v := sw.Header().Get(o.CacheHeader); v != "" {
				attrs = append(attrs, slog.String("cache", v))
			}
		}
		attrs = append(attrs, bag.take()...)
		level := slog.LevelInfo
		if o.SlowThreshold > 0 && dur >= o.SlowThreshold {
			level = slog.LevelWarn
			attrs = append(attrs, slog.Bool("slow", true))
		}
		o.Logger.LogAttrs(ctx, level, "request", attrs...)
	})
}
