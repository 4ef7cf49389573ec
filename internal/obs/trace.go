// Request tracing: an opaque ID minted at the first tier that sees a
// request (the semproxy edge, or the server when hit directly), accepted
// from the caller when already present and well formed, and carried via
// context through client/Router hops so every tier's structured log line
// shares it. The ID rides HTTP headers and log lines ONLY — never response
// bodies, which must stay byte-identical across replicas.
package obs

import (
	"context"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"
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

// TraceID returns the trace ID carried by ctx, or "": the one set by
// WithTrace when there is one, else that of the request ctx belongs to.
func TraceID(ctx context.Context) string {
	if id, ok := ctx.Value(traceKey).(string); ok {
		return id
	}
	if rec, _ := ctx.Value(requestKey).(*request); rec != nil {
		return rec.trace
	}
	return ""
}

const hexDigits = "0123456789abcdef"

// NewTraceID mints a 16-hex-char random ID. A trace ID identifies a
// request; it is not a secret, so it is drawn from math/rand/v2.
func NewTraceID() string {
	var b [16]byte
	x := rand.Uint64()
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hexDigits[x&15]
		x >>= 4
	}
	return string(b[:])
}

// maxTraceLen bounds a caller-supplied trace ID.
const maxTraceLen = 64

// validTrace reports whether a caller-supplied trace ID is accepted as is:
// 1–64 bytes of [A-Za-z0-9._:-]. Anything else is replaced by a fresh ID,
// so a header cannot put arbitrary bytes on every tier's log line.
func validTrace(id string) bool {
	if len(id) == 0 || len(id) > maxTraceLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// request is WrapHTTP's record of one request: the status writer handed to
// the handler, the trace ID, and the attributes handlers add to its log
// line. It is one allocation and one context value. It is not pooled: a
// hedge loser may still hold the context after the handler has returned.
type request struct {
	statusWriter
	trace string
	log   bool // a request line will be written, so AddAttrs keeps attrs

	// The handler's stage clock (Stages): when the request arrived, the
	// last mark as the time since then, the time charged to each stage and
	// which stages were marked. One goroutine, the handler's, marks them,
	// before WrapHTTP reads them.
	start  time.Time
	mark   time.Duration
	stage  [numStages]time.Duration
	marked uint8
	batch  bool // the stages are a batch's (Stages.Batch)

	// mu guards attrs: hedged reads race their attribute writes.
	mu    sync.Mutex
	attrs []slog.Attr
}

type requestKeyType struct{}

var requestKey requestKeyType

// AddAttrs attaches attrs to the request log line for the request ctx
// belongs to. A no-op when no request log is written.
func AddAttrs(ctx context.Context, attrs ...slog.Attr) {
	rec, _ := ctx.Value(requestKey).(*request)
	if rec == nil || !rec.log {
		return
	}
	rec.mu.Lock()
	rec.attrs = append(rec.attrs, attrs...)
	rec.mu.Unlock()
}

// takeAttrs returns the attributes added so far.
func (rec *request) takeAttrs() []slog.Attr {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.attrs
}
