package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// unarmed returns a LineWriter over out whose timed flush never fires
// unless the test calls timedFlush, and a count of how often it was armed.
func unarmed(out io.Writer) (*LineWriter, *int) {
	w := NewLineWriter(out)
	armed := new(int)
	w.arm = func() { *armed++ }
	return w, armed
}

// textMarshaler, failingMarshaler, nilMarshaler and throwingMarshaler
// reach appendAny's MarshalText outcomes.
type textMarshaler struct{ s string }

func (m textMarshaler) MarshalText() ([]byte, error) { return []byte(m.s), nil }

type failingMarshaler struct{}

func (failingMarshaler) MarshalText() ([]byte, error) { return nil, errors.New("no text") }

type nilMarshaler struct{ s string }

func (m *nilMarshaler) MarshalText() ([]byte, error) { return []byte(m.s), nil }

type throwingMarshaler struct{}

func (throwingMarshaler) MarshalText() ([]byte, error) { panic("cannot marshal") }

type namedBytes []byte

type valuer struct{ v slog.Value }

func (l valuer) LogValue() slog.Value { return l.v }

// TestLineHandlerMatchesTextHandler: for the same record, LineHandler
// writes exactly the bytes slog.TextHandler writes.
func TestLineHandlerMatchesTextHandler(t *testing.T) {
	at := time.Date(2026, 3, 4, 5, 6, 7, 891_234_567, time.FixedZone("X", 5*3600+1800))
	mono := time.Now() // carries a monotonic reading
	none := func(h slog.Handler) slog.Handler { return h }
	for _, tc := range []struct {
		name  string
		time  time.Time
		level slog.Level
		msg   string
		with  func(slog.Handler) slog.Handler
		attrs []slog.Attr
	}{
		{"plain", at, slog.LevelInfo, "request", none, []slog.Attr{slog.String("a", "b"), slog.Int("n", -3)}},
		{"no attrs", at, slog.LevelInfo, "m", none, nil},
		{"zero time", time.Time{}, slog.LevelInfo, "m", none, []slog.Attr{slog.String("k", "v")}},
		{"monotonic time", mono, slog.LevelInfo, "m", none, []slog.Attr{slog.Time("t", mono)}},
		{"empty strings", at, slog.LevelInfo, "", none, []slog.Attr{slog.String("", ""), slog.String("k", "")}},
		{"spaces and =", at, slog.LevelInfo, "a message", none, []slog.Attr{
			slog.String("k", "hello world"), slog.String("a b", "x"), slog.String("eq", "a=b"), slog.String("k=", "v"),
		}},
		{"quotes and backslashes", at, slog.LevelInfo, `say "hi"`, none, []slog.Attr{
			slog.String("q", `"quoted"`), slog.String("bs", `C:\dir\file`), slog.String("both", `\"`), slog.String(`k\`, "v"),
		}},
		{"non-ASCII", at, slog.LevelInfo, "héllo", none, []slog.Attr{
			slog.String("jp", "日本語"), slog.String("nbsp", "a\u00a0b"), slog.String("zwsp", "a\u200bb"),
			slog.String("emoji", "🙂"), slog.String("ключ", "значение"),
		}},
		{"invalid UTF-8", at, slog.LevelInfo, "\xff", none, []slog.Attr{slog.String("bad", "a\xffb"), slog.String("\xfe", "v")}},
		{"control bytes", at, slog.LevelInfo, "line\nbreak", none, []slog.Attr{
			slog.String("nul", "a\x00b"), slog.String("tab", "a\tb"), slog.String("nl", "a\nb"),
			slog.String("cr", "\r"), slog.String("del", "a\x7fb"), slog.String("bell", "\a"),
		}},
		{"every kind", at, slog.LevelInfo, "kinds", none, []slog.Attr{
			slog.Any("any", struct{ A, B int }{1, 2}),
			slog.Any("nil", nil),
			slog.Any("err", errors.New("it failed")),
			slog.Any("bytes", []byte("a b\x00")),
			slog.Any("named", namedBytes("xyz")),
			slog.Any("marshaler", textMarshaler{"with space"}),
			slog.Any("failing", failingMarshaler{}),
			slog.Any("nilptr", (*nilMarshaler)(nil)),
			slog.Any("throwing", throwingMarshaler{}),
			slog.Any("kind", slog.KindInt64),
			slog.Any("level", slog.LevelWarn),
			slog.Any("slice", []int{1, 2}),
			slog.Any("src", &slog.Source{Function: "f", File: "a b.go", Line: 3}),
			slog.Bool("t", true), slog.Bool("f", false),
			slog.Duration("d", 1500*time.Millisecond), slog.Duration("d0", 0),
			slog.Float64("f1", 1.5), slog.Float64("big", 1e21), slog.Float64("nan", math.NaN()),
			slog.Float64("inf", math.Inf(-1)), slog.Float64("negzero", math.Copysign(0, -1)),
			slog.Int64("i", math.MinInt64), slog.Uint64("u", math.MaxUint64),
			slog.String("s", "str"),
			slog.Time("time", at), slog.Time("zero", time.Time{}),
			slog.Group("g", slog.Int("a", 1), slog.Group("h", slog.String("b", "x y"))),
			slog.Group("empty"),
			slog.Group("", slog.Int("inline", 1)),
			slog.Any("valuer", valuer{slog.StringValue("resolved")}),
			slog.Any("valuer group", valuer{slog.GroupValue(slog.Int("x", 1))}),
			{},
		}},
		{"WithAttrs", at, slog.LevelInfo, "m", func(h slog.Handler) slog.Handler {
			return h.WithAttrs([]slog.Attr{slog.String("component", "server"), slog.String("sp ace", "v v")}).
				WithAttrs([]slog.Attr{slog.Int("n", 1)})
		}, []slog.Attr{slog.String("k", "v")}},
		{"WithAttrs of empty groups", at, slog.LevelInfo, "m", func(h slog.Handler) slog.Handler {
			return h.WithAttrs([]slog.Attr{slog.Group("e")}).WithAttrs(nil)
		}, []slog.Attr{slog.String("k", "v")}},
		{"WithAttrs of empty attrs", at, slog.LevelInfo, "m", func(h slog.Handler) slog.Handler {
			return h.WithGroup("g").WithAttrs([]slog.Attr{{}})
		}, []slog.Attr{slog.String("k", "v")}},
		{"WithGroup", at, slog.LevelInfo, "m", func(h slog.Handler) slog.Handler {
			return h.WithGroup("g").WithAttrs([]slog.Attr{slog.Int("a", 1)}).WithGroup("h")
		}, []slog.Attr{slog.String("k", "v"), slog.Group("i", slog.Int("j", 2))}},
		{"WithGroup without record attrs", at, slog.LevelInfo, "m", func(h slog.Handler) slog.Handler {
			return h.WithAttrs([]slog.Attr{slog.Int("a", 1)}).WithGroup("g")
		}, nil},
		{"WithGroup of a quoted name", at, slog.LevelInfo, "m", func(h slog.Handler) slog.Handler {
			return h.WithGroup("a b").WithGroup("")
		}, []slog.Attr{slog.String("k", "v")}},
		{"Warn", at, slog.LevelWarn, "request", none, []slog.Attr{slog.Bool("slow", true)}},
		{"Error", at, slog.LevelError, "m", none, nil},
		{"Info+2", at, slog.LevelInfo + 2, "m", none, nil},
		{"Debug", at, slog.LevelDebug, "m", none, nil},
		{"request line", at, slog.LevelInfo, "request", none, []slog.Attr{
			slog.String("component", "server"), slog.String("method", "POST"), slog.String("path", "/v1/query"),
			slog.Int("status", 200), slog.Float64("ms", 0.123), slog.String("trace", "0123456789abcdef"),
			slog.String("epoch", "7"), slog.String("cache", "hit"), slog.String("backend", "http://127.0.0.1:8081"),
			slog.Bool("hedged", false),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := slog.NewRecord(tc.time, tc.level, tc.msg, 0)
			r.AddAttrs(tc.attrs...)
			var want, got bytes.Buffer
			if err := tc.with(slog.NewTextHandler(&want, nil)).Handle(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			w := NewLineWriter(&got)
			if err := tc.with(NewLineHandler(w)).Handle(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("LineHandler wrote\n%q\nTextHandler wrote\n%q", got.String(), want.String())
			}
		})
	}
}

// TestLineWriterOrdering: a Warn line and a log package line each land
// after every Info line buffered before them.
func TestLineWriterOrdering(t *testing.T) {
	var out bytes.Buffer
	w, _ := unarmed(&out)
	logger := slog.New(NewLineHandler(w))
	std := log.New(w, "daemon: ", 0)

	logger.Info("request", "n", 1)
	logger.Info("request", "n", 2)
	if out.Len() != 0 {
		t.Fatalf("Info lines written before a flush: %q", out.String())
	}
	logger.Warn("request", "n", 3)
	logger.Info("request", "n", 4)
	std.Print("replication stopped")
	logger.Info("request", "n", 5)

	var seq []string
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		if i := strings.Index(line, " n="); i >= 0 {
			seq = append(seq, line[i+1:])
		} else {
			seq = append(seq, line)
		}
	}
	want := []string{"n=1", "n=2", "n=3", "n=4", "daemon: replication stopped"}
	if strings.Join(seq, "|") != strings.Join(want, "|") {
		t.Fatalf("stderr order %q, want %q (n=5 still pending)", seq, want)
	}
}

// TestLineWriterCloseFlushes: Close writes what is pending, and a line
// buffered after Close is written at once.
func TestLineWriterCloseFlushes(t *testing.T) {
	var out bytes.Buffer
	w, _ := unarmed(&out)
	w.Buffer([]byte("a\n")) //nolint:errcheck // bytes.Buffer
	if out.Len() != 0 {
		t.Fatal("a buffered line was written at once")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "a\n" {
		t.Fatalf("after Close: %q", out.String())
	}
	w.Buffer([]byte("b\n")) //nolint:errcheck // bytes.Buffer
	if out.String() != "a\nb\n" {
		t.Fatalf("a line after Close: %q", out.String())
	}
}

// TestLineWriterTimedFlush: the first buffered line arms one timed flush,
// the flush writes every pending line in one write, and the next line
// arms it again.
func TestLineWriterTimedFlush(t *testing.T) {
	var out writeLog
	w, armed := unarmed(&out)
	w.Buffer([]byte("a\n")) //nolint:errcheck // writeLog
	w.Buffer([]byte("b\n")) //nolint:errcheck // writeLog
	if *armed != 1 || len(out.writes) != 0 {
		t.Fatalf("armed %d times, %d writes; want 1, 0", *armed, len(out.writes))
	}
	w.timedFlush()
	if len(out.writes) != 1 || out.writes[0] != "a\nb\n" {
		t.Fatalf("timed flush wrote %q", out.writes)
	}
	w.timedFlush()          // nothing pending: no empty write
	w.Buffer([]byte("c\n")) //nolint:errcheck // writeLog
	if *armed != 2 || len(out.writes) != 1 {
		t.Fatalf("armed %d times, %d writes; want 2, 1", *armed, len(out.writes))
	}
}

// TestLineWriterSizeFlush: pending bytes go out once they reach flushBytes,
// without waiting for the timer.
func TestLineWriterSizeFlush(t *testing.T) {
	var out writeLog
	w, _ := unarmed(&out)
	line := []byte(strings.Repeat("x", 99) + "\n")
	for i := 0; i < flushBytes/len(line); i++ {
		w.Buffer(line) //nolint:errcheck // writeLog
	}
	if len(out.writes) != 0 {
		t.Fatalf("%d writes below the size threshold", len(out.writes))
	}
	w.Buffer(line) //nolint:errcheck // writeLog
	if len(out.writes) != 1 || len(out.writes[0]) < flushBytes {
		t.Fatalf("%d writes; want one of at least %d bytes", len(out.writes), flushBytes)
	}
}

// TestLineWriterTimerFires: the real timer flushes a buffered line, and
// not before the interval.
func TestLineWriterTimerFires(t *testing.T) {
	out := make(chan []byte, 1)
	w := NewLineWriter(chanWriter(out))
	start := time.Now()
	w.Buffer([]byte("a\n")) //nolint:errcheck // chanWriter
	select {
	case b := <-out:
		if string(b) != "a\n" {
			t.Fatalf("flushed %q", b)
		}
		if d := time.Since(start); d < flushInterval/2 {
			t.Fatalf("flushed after %v, before the interval", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a buffered line was never flushed")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

type chanWriter chan []byte

func (c chanWriter) Write(p []byte) (int, error) {
	c <- append([]byte(nil), p...)
	return len(p), nil
}

// TestLineWriterRaceHammer: request lines and log package lines from many
// goroutines, with the real timer flushing under them, never interleave
// inside a line, and none is lost or repeated.
func TestLineWriterRaceHammer(t *testing.T) {
	var out writeLog
	w := NewLineWriter(&out)
	logger := slog.New(NewLineHandler(w))
	std := log.New(w, "", 0)
	const workers, lines = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				switch i % 10 {
				case 0:
					std.Printf("std g=%d i=%d", g, i)
				case 1:
					logger.Warn("request", "g", g, "i", i, "pad", strings.Repeat("w", i%97))
				default:
					logger.Info("request", "g", g, "i", i, "pad", strings.Repeat("p", i%89))
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, write := range out.writes {
		if !strings.HasSuffix(write, "\n") {
			t.Fatalf("a write ends inside a line: %q", write)
		}
		for _, line := range strings.Split(strings.TrimSuffix(write, "\n"), "\n") {
			var g, i int
			var err error
			if strings.HasPrefix(line, "std ") {
				_, err = fmt.Sscanf(line, "std g=%d i=%d", &g, &i)
			} else {
				_, rest, _ := strings.Cut(line, " msg=request g=")
				_, err = fmt.Sscanf(rest, "%d i=%d", &g, &i)
			}
			key := fmt.Sprint(g, "/", i)
			if err != nil || seen[key] {
				t.Fatalf("malformed or repeated line %q (%v)", line, err)
			}
			seen[key] = true
		}
	}
	if len(seen) != workers*lines {
		t.Fatalf("%d lines written, want %d", len(seen), workers*lines)
	}
}

// BenchmarkRequestLine formats one request line, as WrapHTTP hands it to
// the logger's handler, through the daemons' LineHandler and through
// slog.TextHandler, both writing to io.Discard.
func BenchmarkRequestLine(b *testing.B) {
	attrs := []slog.Attr{
		slog.String("component", "server"), slog.String("method", "POST"), slog.String("path", "/v1/query"),
		slog.Int("status", 200), slog.Float64("ms", 0.123), slog.String("trace", "0123456789abcdef"),
		slog.String("epoch", "7"),
	}
	for _, tc := range []struct {
		name string
		h    slog.Handler
	}{
		{"handler=line", NewLineHandler(NewLineWriter(io.Discard))},
		{"handler=text", slog.NewTextHandler(io.Discard, nil)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for b.Loop() {
				r := slog.NewRecord(time.Now(), slog.LevelInfo, "request", 0)
				r.AddAttrs(attrs...)
				tc.h.Handle(ctx, r) //nolint:errcheck // io.Discard
			}
		})
	}
}

// writeLog records every Write as one string. The LineWriter only writes
// to it under its lock, so it needs none of its own.
type writeLog struct{ writes []string }

func (l *writeLog) Write(p []byte) (int, error) {
	l.writes = append(l.writes, string(p))
	return len(p), nil
}

func TestLineHandlerEnabledAtInfo(t *testing.T) {
	h := NewLineHandler(NewLineWriter(io.Discard))
	text := slog.NewTextHandler(io.Discard, nil)
	for _, l := range []slog.Level{slog.LevelDebug, slog.LevelInfo - 1, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if got, want := h.Enabled(context.Background(), l), text.Enabled(context.Background(), l); got != want {
			t.Errorf("Enabled(%v) = %v, TextHandler says %v", l, got, want)
		}
	}
}
