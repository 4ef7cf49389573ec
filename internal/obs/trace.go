// Request tracing: an opaque ID minted at the first tier that sees a
// request (the semproxy edge, or the server when hit directly), accepted
// from the caller when already present, and carried via context through
// client/Router hops so every tier's structured log line shares it. The
// ID rides HTTP headers and log lines ONLY — never response bodies,
// which must stay byte-identical across replicas.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
)

type traceKeyType struct{}

var traceKey traceKeyType

// WithTrace returns ctx carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey, id)
}

// TraceID returns the trace ID carried by ctx, or "".
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey).(string)
	return id
}

var traceFallback atomic.Uint64

// NewTraceID mints a 16-hex-char random ID. If the system randomness
// source fails (it effectively cannot on the supported platforms), a
// process-local counter keeps IDs unique rather than failing a request
// over telemetry.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "t" + strconv.FormatUint(traceFallback.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}

// attrBag collects extra slog attrs a handler wants on its request log
// line (backend URL, hedge outcome) without the middleware knowing the
// handler's vocabulary. Carried by context; guarded because hedged reads
// race their attr writes.
type attrBag struct {
	mu    sync.Mutex
	attrs []slog.Attr
}

type attrBagKeyType struct{}

var attrBagKey attrBagKeyType

func withAttrBag(ctx context.Context) (context.Context, *attrBag) {
	b := &attrBag{}
	return context.WithValue(ctx, attrBagKey, b), b
}

// AddAttrs attaches attrs to the request log line for the request ctx
// belongs to. A no-op when no logging middleware is installed.
func AddAttrs(ctx context.Context, attrs ...slog.Attr) {
	b, _ := ctx.Value(attrBagKey).(*attrBag)
	if b == nil {
		return
	}
	b.mu.Lock()
	b.attrs = append(b.attrs, attrs...)
	b.mu.Unlock()
}

func (b *attrBag) take() []slog.Attr {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attrs
}
