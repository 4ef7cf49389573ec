package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	semprox "repro"
	"repro/api"
	"repro/internal/dataset"
	"repro/internal/mining"
)

// serveQueryAllocBudget is the committed ceiling on heap allocations for
// one POST /v1/query (k=10) through ServeHTTP into a fresh recorder with
// the request log on — the whole server shell: middleware, trace ID,
// strict decode, name resolution, the scan, render, encode, log line.
// Measured 31 (58 before the wire codec); raise it only with a reason.
const serveQueryAllocBudget = 32

var (
	serveFixtureOnce sync.Once
	serveEngine      *semprox.Engine
	serveNames       []string // users whose ranking fills k=10
)

// serveFixture builds (once) an engine over a LinkedIn-shaped graph large
// enough that a k=10 query returns ten results, as the benchmark's do.
func serveFixture(tb testing.TB) (*semprox.Engine, []string) {
	tb.Helper()
	serveFixtureOnce.Do(func() {
		ds := dataset.LinkedIn(dataset.Config{Users: 300, Seed: 1, NoiseRate: 0.05})
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
		for _, u := range ds.Users() {
			if ranked, err := eng.Query("college", u, 10); err == nil && len(ranked) == 10 {
				serveNames = append(serveNames, ds.G.Name(u))
			}
		}
		serveEngine = eng
	})
	if len(serveNames) < 8 {
		tb.Fatalf("only %d users rank 10 candidates", len(serveNames))
	}
	return serveEngine, serveNames
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
// server shell around the scan.
func TestServeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's, not the server's")
	}
	eng, names := serveFixture(t)
	s := loggedServer(eng, true)
	req, rewind := postRequest(`{"class":"college","query":"` + names[0] + `","k":10}`)
	var rec *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(200, func() {
		rewind()
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `{"node":`) != 10 {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	t.Logf("ServeHTTP(k=10 query, request log on): %.0f allocs", allocs)
	if allocs > serveQueryAllocBudget {
		t.Errorf("ServeHTTP allocates %.0f times per k=10 query, budget %d", allocs, serveQueryAllocBudget)
	}
}

func benchServe(b *testing.B, body func(names []string) string) {
	eng, names := serveFixture(b)
	for _, mode := range []struct {
		name  string
		logOn bool
	}{{"log=on", true}, {"log=off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s := loggedServer(eng, mode.logOn)
			req, rewind := postRequest(body(names))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rewind()
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkServeQuery is one k=10 query through the whole handler chain,
// with the request log on (the daemons' configuration) and off — the
// difference is what the log line costs.
func BenchmarkServeQuery(b *testing.B) {
	benchServe(b, func(names []string) string {
		return `{"class":"college","query":"` + names[0] + `","k":10}`
	})
}

// BenchmarkServeBatch is the benchmark mix's batch of 8.
func BenchmarkServeBatch(b *testing.B) {
	benchServe(b, func(names []string) string {
		return `{"class":"college","queries":["` + strings.Join(names[:8], `","`) + `"],"k":10}`
	})
}
