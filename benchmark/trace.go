package main

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"time"

	"repro/internal/atomicfile"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own files (nothing inside the product is instrumented
// by this PR). Spans of one operation share Op; Parent is the span of the
// next outer layer, 0 for the outermost.
//
// The traced run executes an operation's chain at successive depths on
// the same input — the client call, then the handler alone, then the
// engine call alone, ... — so a child's [Start, End) lies after its
// parent's, not inside it. Parent is the causal relation, and self time
// is computed from durations.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`     // the op's kind, or a cache outcome
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(op, parent int, name, kind string) int {
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Kind: kind})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.t0))
	return s.ID
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// overheadNS is the cost of one empty span, measured on this machine now.
func (t *tracer) overheadNS() float64 {
	const n = 20000
	probe := &tracer{t0: t.t0, spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin(i, 0, "trace.empty", ""))
	}
	return float64(time.Since(start)) / n
}

// selfTimes returns each span's self time by id: its duration minus its
// children's durations. It can be negative: depths run separately, so a
// child's sample can exceed its parent's by noise — or by design, where
// the parent fans the child's work out over several processors
// (semprox.query shards the scan core.rank runs serially).
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanQuantile is the p-quantile, in ns, of f over the spans matching
// name (and kind, unless empty); 0 when none match.
func spanQuantile(spans []span, name, kind string, p float64, f func(span) int64) float64 {
	var v []int64
	for _, s := range spans {
		if s.Name == name && (kind == "" || s.Kind == kind) {
			v = append(v, f(s))
		}
	}
	slices.Sort(v)
	return float64(percentile(v, p))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	return atomicfile.WriteWith(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
}
