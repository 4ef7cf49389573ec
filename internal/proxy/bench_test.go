package proxy

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// hedgePairs is how many unhedged/hedged pairs BenchmarkHedge runs.
const hedgePairs = 2

// BenchmarkHedge measures what hedging buys against a straggler: a real
// primary and a real follower (server.Server each, the follower
// replicating from the primary), the follower stalling 1 query in 20 by
// 40ms, and one reader through the proxy with the cache off. Each read
// goes to the follower first; hedge=true duplicates a straggler to the
// primary after the follower's trailing p95. The two sides alternate,
// hedgePairs times, over the same backends; each reports the read
// latency p50 and p99 in ms and the hedges issued per read:
//
//	go test -run '^$' -bench BenchmarkHedge -benchtime 3000x ./internal/proxy
func BenchmarkHedge(b *testing.B) {
	if testing.Short() {
		b.Skip("drives real backends with 40ms stalls")
	}
	eng, g := toyEngine(b)
	w, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	psrv := server.New(eng)
	psrv.AttachWAL(w)
	primary := httptest.NewServer(psrv)
	defer primary.Close()

	ctx, cancel := context.WithCancel(context.Background())
	f := replica.NewFollower(primary.URL, primary.Client())
	if err := f.Bootstrap(ctx); err != nil {
		b.Fatal(err)
	}
	fsrv := server.New(f.Engine())
	fsrv.SetFollower(f)
	var queries atomic.Int64
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathQuery && queries.Add(1)%20 == 0 {
			select {
			case <-time.After(40 * time.Millisecond):
			case <-r.Context().Done():
			}
		}
		fsrv.ServeHTTP(w, r)
	}))
	defer follower.Close()
	run := make(chan error, 1)
	go func() { run <- f.Run(ctx) }()
	defer func() { cancel(); <-run }()

	router := client.NewRouter(primary.URL, []string{follower.URL}, nil)
	for deadline := time.Now().Add(10 * time.Second); router.Probe(ctx) != 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatal("the follower never joined the read rotation")
		}
	}
	users := g.NodesOfType(g.Types().ID("user"))
	for i := 0; i < 2*hedgePairs; i++ {
		hedge := i%2 == 1
		b.Run(fmt.Sprintf("pair=%d/hedge=%v", i/2+1, hedge), func(b *testing.B) {
			p := New(router, Options{Hedge: hedge})
			edge := httptest.NewServer(p)
			defer edge.Close()
			hc := edge.Client()
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				target := fmt.Sprintf("%s%s?class=classmate&query=%s&k=5", edge.URL, api.PathQuery, url.QueryEscape(g.Name(users[i%len(users)])))
				start := time.Now()
				resp, err := hc.Get(target)
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("read %d: status %d", i, resp.StatusCode)
				}
				lat[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2])/1e6, "p50_ms")
			b.ReportMetric(float64(lat[len(lat)*99/100])/1e6, "p99_ms")
			b.ReportMetric(float64(p.Counters().HedgesIssued)/float64(b.N), "hedges/op")
		})
	}
}
