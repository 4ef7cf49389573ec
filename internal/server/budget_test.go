package server

import (
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	semprox "repro"
	"repro/api"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/obs"
)

// serveQueryAllocBudget is the committed ceiling on heap allocations for
// one POST /v1/query (k=10) through ServeHTTP into a fresh recorder with
// the request log on — the whole server shell: middleware, trace ID,
// strict decode, name resolution, the scan, render, encode, log line.
// Measured 31 (58 before the wire codec); raise it only with a reason.
const serveQueryAllocBudget = 32

// serveBatchAllocBudget is the same ceiling for one POST /v1/query of a
// batch of 8 (k=10). Measured 48 (56 while every query's field name was
// formatted); raise it only with a reason.
const serveBatchAllocBudget = 48

// newServeFixture returns a builder (run at most once) of an engine over a
// LinkedIn-shaped graph of the given size — one class, MaxNodes 3, the
// benchmark's read_direct set-up at 5 000 — and the names of the users
// whose ranking fills k=10, as the benchmark's do.
func newServeFixture(users int) func() (*semprox.Engine, []string) {
	return sync.OnceValues(func() (*semprox.Engine, []string) {
		ds := dataset.LinkedIn(dataset.Config{Users: users, Seed: 1, NoiseRate: 0.05})
		opts := semprox.DefaultOptions()
		opts.Mining = mining.Options{MaxNodes: 3, MinSupport: 5}
		opts.Train.Restarts = 1
		opts.Train.MaxIters = 60
		eng, err := semprox.NewEngine(ds.G, "user", opts)
		if err != nil {
			panic(err)
		}
		labels := ds.Classes["college"]
		eng.Train("college", semprox.MakeExamples(labels, labels.Queries(), ds.Users(), 100, 1))
		var names []string
		for _, u := range ds.Users() {
			if ranked, err := eng.Query("college", u, 10); err == nil && len(ranked) == 10 {
				names = append(names, ds.G.Name(u))
			}
		}
		return eng, names
	})
}

// smallServeFixture is what the budget test and the warm benchmarks serve
// from; largeServeFixture is the uniform benchmarks' index, too big to stay
// in cache.
var smallServeFixture, largeServeFixture = newServeFixture(300), newServeFixture(5000)

func serveFixture(tb testing.TB) (*semprox.Engine, []string) {
	tb.Helper()
	eng, names := smallServeFixture()
	if len(names) < 8 {
		tb.Fatalf("only %d users rank 10 candidates", len(names))
	}
	return eng, names
}

// replayBody lets one request be served repeatedly without rebuilding it.
type replayBody struct{ strings.Reader }

func (*replayBody) Close() error { return nil }

// postRequest returns a POST /v1/query and the rewind to call before
// each serve.
func postRequest(body string) (*http.Request, func()) {
	rb := &replayBody{*strings.NewReader(body)}
	req := httptest.NewRequest(http.MethodPost, api.PathQuery, nil)
	req.Body = rb
	req.Header.Set("Content-Type", "application/json")
	return req, func() { rb.Reset(body) }
}

func loggedServer(eng *semprox.Engine, logOn bool) *Server {
	s := New(eng)
	if logOn {
		s.SetRequestLog(slog.New(slog.NewJSONHandler(io.Discard, nil)), 0)
	}
	return s
}

// TestServeAllocBudget extends TestRankAllocBudget's discipline to the
// server shell around the scan: one query, and one batch of 8, which must
// not pay for the error path of a query that resolves.
func TestServeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's, not the server's")
	}
	eng, names := serveFixture(t)
	s := loggedServer(eng, true)
	for _, tc := range []struct {
		name    string
		body    string
		results int
		budget  int
	}{
		{"k=10 query", `{"class":"college","query":"` + names[0] + `","k":10}`, 10, serveQueryAllocBudget},
		{"batch of 8", `{"class":"college","queries":["` + strings.Join(names[:8], `","`) + `"],"k":10}`, 80, serveBatchAllocBudget},
	} {
		req, rewind := postRequest(tc.body)
		var rec *httptest.ResponseRecorder
		allocs := testing.AllocsPerRun(200, func() {
			rewind()
			rec = httptest.NewRecorder()
			s.ServeHTTP(rec, req)
		})
		if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `{"node":`) != tc.results {
			t.Fatalf("%s: status %d, body %s", tc.name, rec.Code, rec.Body)
		}
		t.Logf("ServeHTTP(%s, request log on): %.0f allocs", tc.name, allocs)
		if allocs > float64(tc.budget) {
			t.Errorf("ServeHTTP allocates %.0f times per %s, budget %d", allocs, tc.name, tc.budget)
		}
	}
}

// benchServe serves body(names), a request for the first per names, through
// the whole handler chain. The two warm modes repeat ONE request on a
// 300-user engine, log on (the daemons' configuration) and off, so every
// run the scan reads is in cache and what is left is the shell. uniform is
// what a daemon under the benchmark's read mix pays: the 5 000-user
// read_direct engine, log on, each request's anchors the next ones of a
// seeded permutation, so consecutive requests share no runs and the index
// does not stay in cache. candidates/op is the engine's own work counter
// per request: the partners the scans scored, those reached through a
// metagraph the class weighs (≈ 88 per query; 258 partners before the
// scan skipped the others).
func benchServe(b *testing.B, per int, body func(names []string) string) {
	serve := func(b *testing.B, s *Server, bodies []string) {
		req, _ := postRequest("")
		rb := req.Body.(*replayBody)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.Reset(bodies[i%len(bodies)])
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	eng, names := serveFixture(b)
	for _, mode := range []struct {
		name  string
		logOn bool
	}{{"log=on", true}, {"log=off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			serve(b, loggedServer(eng, mode.logOn), []string{body(names)})
		})
	}
	b.Run("uniform", func(b *testing.B) {
		eng, names := largeServeFixture()
		names = slices.Clone(names)
		rand.New(rand.NewSource(1)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		bodies := make([]string, 0, len(names)/per)
		for ; len(names) >= per; names = names[per:] {
			bodies = append(bodies, body(names))
		}
		before := candidatesScanned()
		serve(b, loggedServer(eng, true), bodies)
		b.ReportMetric((candidatesScanned()-before)/float64(b.N), "candidates/op")
	})
}

// candidatesScanned returns the running total of the engine's own work
// counter. The registry hands out a histogram's sum only as a mean scaled
// by 1e-6 (milliseconds of a nanosecond sample), hence the arithmetic.
func candidatesScanned() float64 {
	s := obs.Default().Histogram("semprox_query_candidates_scanned", "", obs.Units).Summary()
	return s.MeanMs * 1e6 * float64(s.Count)
}

// BenchmarkServeQuery is one k=10 query through the whole handler chain.
func BenchmarkServeQuery(b *testing.B) {
	benchServe(b, 1, func(names []string) string {
		return `{"class":"college","query":"` + names[0] + `","k":10}`
	})
}

// BenchmarkServeBatch is the benchmark mix's batch of 8.
func BenchmarkServeBatch(b *testing.B) {
	benchServe(b, 8, func(names []string) string {
		return `{"class":"college","queries":["` + strings.Join(names[:8], `","`) + `"],"k":10}`
	})
}
