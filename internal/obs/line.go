// The daemons' stderr: one LineWriter per process, shared by the standard
// log package and the request log, and a slog.Handler over it that writes
// what slog.TextHandler writes. A request line at Info waits in the
// writer's pending buffer and goes out with its neighbours in one write;
// everything else — Warn lines, the log package's lines — is written at
// once, after whatever is pending, so stderr keeps the order lines were
// produced in.
package obs

import (
	"context"
	"encoding"
	"fmt"
	"io"
	"log/slog"
	"reflect"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
)

// Pending request lines are flushed once this many bytes wait, and at most
// flushInterval after the first of them was buffered.
const (
	flushBytes    = 32 << 10
	flushInterval = 100 * time.Millisecond
)

// LineWriter serializes one process's log output onto out. Write is
// immediate; Buffer defers a line to the next flush. Pending bytes are
// flushed when they reach flushBytes, flushInterval after they started to
// wait, before any Write, and at Close. Safe for concurrent use.
type LineWriter struct {
	mu      sync.Mutex
	out     io.Writer
	pending []byte
	armed   bool // a timed flush is scheduled
	closed  bool // Buffer writes through
	// arm schedules timedFlush flushInterval from now; tests replace it to
	// run the flush by hand. Called with mu held.
	arm func()
}

// NewLineWriter returns a LineWriter over out.
func NewLineWriter(out io.Writer) *LineWriter {
	w := &LineWriter{out: out}
	w.arm = func() { time.AfterFunc(flushInterval, w.timedFlush) }
	return w
}

// timedFlush is the flush Buffer scheduled. One that fires after Close
// finds nothing pending.
func (w *LineWriter) timedFlush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = false
	w.flushLocked() //nolint:errcheck // nobody to report a failed stderr write to
}

// flushLocked writes the pending bytes, if any, in one write.
func (w *LineWriter) flushLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	_, err := w.out.Write(w.pending)
	if cap(w.pending) > 2*flushBytes { // one huge Write must not pin its copy
		w.pending = nil
	} else {
		w.pending = w.pending[:0]
	}
	return err
}

// Write writes the pending bytes and then p, in one write.
func (w *LineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) == 0 {
		return w.out.Write(p)
	}
	w.pending = append(w.pending, p...)
	if err := w.flushLocked(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Buffer appends p to the pending bytes; after Close it writes p at once.
// p may be reused when Buffer returns.
func (w *LineWriter) Buffer(p []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		_, err := w.out.Write(p)
		return err
	}
	w.pending = append(w.pending, p...)
	if len(w.pending) >= flushBytes {
		return w.flushLocked()
	}
	if !w.armed {
		w.armed = true
		w.arm()
	}
	return nil
}

// Close flushes the pending bytes. The writer stays usable: later lines
// are written at once.
func (w *LineWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return w.flushLocked()
}

// LineHandler is the daemons' slog.Handler: for every record it writes
// byte for byte what slog.NewTextHandler(w, nil) would, into a pooled
// buffer handed to a LineWriter — Buffer below Warn, Write from Warn up.
type LineHandler struct {
	w      *LineWriter
	attrs  []byte // WithAttrs' attributes, formatted, each after a space
	prefix string // WithGroup's names, each followed by "."
}

// NewLineHandler returns a handler writing to w.
func NewLineHandler(w *LineWriter) *LineHandler { return &LineHandler{w: w} }

// Enabled reports whether level is at least Info, TextHandler's default.
func (h *LineHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= slog.LevelInfo
}

// maxPooledLine bounds the line buffers the pool keeps.
const maxPooledLine = 16 << 10

var linePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// Handle formats r and hands it to the writer.
func (h *LineHandler) Handle(_ context.Context, r slog.Record) error {
	bp := linePool.Get().(*[]byte)
	b := (*bp)[:0]
	if !r.Time.IsZero() {
		b = append(b, "time="...)
		b = appendRFC3339Millis(b, r.Time)
		b = append(b, ' ')
	}
	b = append(b, "level="...)
	b = appendTextString(b, r.Level.String())
	b = append(b, " msg="...)
	b = appendTextString(b, r.Message)
	b = append(b, h.attrs...)
	r.Attrs(func(a slog.Attr) bool {
		b = appendAttr(b, h.prefix, a)
		return true
	})
	b = append(b, '\n')
	var err error
	if r.Level < slog.LevelWarn {
		err = h.w.Buffer(b)
	} else {
		_, err = h.w.Write(b)
	}
	if cap(b) <= maxPooledLine {
		*bp = b
		linePool.Put(bp)
	}
	return err
}

// WithAttrs returns a handler whose lines carry attrs after the message.
func (h *LineHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	empty := 0
	for _, a := range attrs {
		if a.Value.Kind() == slog.KindGroup && len(a.Value.Group()) == 0 {
			empty++
		}
	}
	if empty == len(attrs) {
		return h
	}
	h2 := *h
	h2.attrs = append([]byte(nil), h.attrs...)
	for _, a := range attrs {
		h2.attrs = appendAttr(h2.attrs, h.prefix, a)
	}
	return &h2
}

// WithGroup returns a handler whose later attributes' keys are qualified
// by name. Like TextHandler's, it does not special-case an empty name.
func (h *LineHandler) WithGroup(name string) slog.Handler {
	h2 := *h
	h2.prefix = h.prefix + name + "."
	return &h2
}

// appendAttr appends " key=value" for a, or one such pair per member of a
// group, with keys qualified by prefix.
func appendAttr(b []byte, prefix string, a slog.Attr) []byte {
	v := a.Value
	if v.Kind() == slog.KindLogValuer {
		v = v.Resolve()
	}
	switch v.Kind() {
	case slog.KindGroup:
		if a.Key != "" {
			prefix += a.Key + "."
		}
		for _, m := range v.Group() {
			b = appendAttr(b, prefix, m)
		}
		return b
	case slog.KindAny:
		if a.Key == "" && v.Any() == nil {
			return b // the empty Attr is elided
		}
		if src, ok := v.Any().(*slog.Source); ok {
			v = slog.StringValue(fmt.Sprintf("%s:%d", src.File, src.Line))
		}
	}
	b = append(b, ' ')
	if prefix != "" {
		b = appendTextString(b, prefix+a.Key)
	} else {
		b = appendTextString(b, a.Key)
	}
	b = append(b, '=')
	switch v.Kind() {
	case slog.KindString:
		return appendTextString(b, v.String())
	case slog.KindInt64:
		return strconv.AppendInt(b, v.Int64(), 10)
	case slog.KindUint64:
		return strconv.AppendUint(b, v.Uint64(), 10)
	case slog.KindFloat64:
		return strconv.AppendFloat(b, v.Float64(), 'g', -1, 64)
	case slog.KindBool:
		return strconv.AppendBool(b, v.Bool())
	case slog.KindDuration:
		return append(b, v.Duration().String()...)
	case slog.KindTime:
		return appendRFC3339Millis(b, v.Time())
	default:
		return appendAny(b, v.Any())
	}
}

// appendAny formats an arbitrary value as TextHandler does: through
// MarshalText, as a quoted byte slice, or with %+v; a panic while
// formatting is written in its place.
func appendAny(b []byte, x any) (out []byte) {
	defer func() {
		if r := recover(); r != nil {
			if v := reflect.ValueOf(x); v.Kind() == reflect.Pointer && v.IsNil() {
				out = appendTextString(b, "<nil>")
				return
			}
			out = appendTextString(b, fmt.Sprintf("!PANIC: %v", r))
		}
	}()
	if tm, ok := x.(encoding.TextMarshaler); ok {
		data, err := tm.MarshalText()
		if err != nil {
			return appendTextString(b, fmt.Sprintf("!ERROR:%v", err))
		}
		return appendTextString(b, string(data))
	}
	if t := reflect.TypeOf(x); t != nil && t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8 {
		return strconv.AppendQuote(b, string(reflect.ValueOf(x).Bytes()))
	}
	return appendTextString(b, fmt.Sprintf("%+v", x))
}

// appendTextString appends s, quoted when TextHandler would quote it.
func appendTextString(b []byte, s string) []byte {
	if needsQuoting(s) {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

// needsQuoting reports whether TextHandler quotes s: when it is empty or
// holds a space, '=', '"', an ASCII control byte, invalid UTF-8, or a
// non-ASCII space or non-printing rune.
func needsQuoting(s string) bool {
	if len(s) == 0 {
		return true
	}
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c <= ' ' || c == '=' || c == '"' {
				return true
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError || unicode.IsSpace(r) || !unicode.IsPrint(r) {
			return true
		}
		i += size
	}
	return false
}

// appendRFC3339Millis appends t in RFC 3339 with exactly three fractional
// digits, as TextHandler does. Truncate drops t's monotonic reading.
func appendRFC3339Millis(b []byte, t time.Time) []byte {
	const prefixLen = len("2006-01-02T15:04:05.000")
	n := len(b)
	// RFC3339Nano trims trailing zeros: add a tenth of a millisecond so
	// there are four digits, then drop the fourth.
	t = t.Truncate(time.Millisecond).Add(time.Millisecond / 10)
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b[:n+prefixLen], b[n+prefixLen+1:]...)
}
