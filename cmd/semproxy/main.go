// Command semproxy is the standalone edge tier: it serves the identical
// /v1 surface of a semproxd fleet (one primary + N followers) from a
// single address, so ANY HTTP caller — curl, a non-Go service, a load
// balancer health check — gets what previously only the Go client
// package provided: replica-aware read spreading, failover across a
// primary kill, and write routing that survives a promotion. On top of
// the routing it adds the two edge-tier perf layers (internal/proxy):
// hedged reads (a read outliving its backend's trailing-p95 budget is
// duplicated to the next live replica; first answer wins, loser
// cancelled, writes never hedged, hedges capped) and an epoch-keyed
// response cache (query/proximity responses cached under the engine
// epoch that computed them; any epoch bump flushes — no TTLs needed).
//
// Examples:
//
//	# Front a primary and two followers; hedging and a 4096-entry cache
//	# are on by default.
//	semproxy -addr :8090 -primary http://localhost:8080 \
//	         -followers http://localhost:8081,http://localhost:8082
//
//	# Same /v1 surface as the backends, now with failover + caching.
//	curl 'localhost:8090/v1/query?class=college&query=user-17&k=5'
//	curl localhost:8090/v1/stats   # backend stats + the proxy's counters
//
//	# Watch the hedge/cache counters through the CLI.
//	semproxctl -primary http://localhost:8090 -counts -stats
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/wire"
	"repro/internal/wire/daemon"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("semproxy: ")
	// One writer for stderr: the log package's lines and the request log
	// share it, so they keep their order.
	stderr := obs.NewLineWriter(os.Stderr)
	log.SetOutput(stderr)
	var (
		addr         = flag.String("addr", ":8090", "listen address")
		primary      = flag.String("primary", "http://localhost:8080", "base URL of the (initially) primary backend")
		followers    = flag.String("followers", "", "comma-separated base URLs of follower backends")
		cacheEntries = flag.Int("cache-entries", 4096, "response cache capacity in entries (0 disables caching)")
		hedge        = flag.Bool("hedge", true, "hedge straggling reads to a second live replica")
		hedgeCap     = flag.Int("hedge-cap", proxy.DefaultHedgeCapPct, "max hedges as a percentage of forwarded reads")
		hedgeBudget  = flag.Duration("hedge-budget", proxy.DefaultHedgeBudget, "hedge latency budget before a backend's own p95 estimate exists")
		hedgeMax     = flag.Duration("hedge-budget-max", proxy.DefaultHedgeBudgetMax, "upper clamp on the per-backend p95 hedge budget")
		probe        = flag.Duration("probe", client.DefaultProbeInterval, "backend readiness probe interval")
		statsPoll    = flag.Duration("stats-poll", 500*time.Millisecond, "primary stats poll interval (epoch tracking for cache flushes; 0 disables)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this extra address (e.g. localhost:6061); empty disables profiling endpoints")
		requestLog   = flag.Bool("request-log", true, "emit one structured log line per request (endpoint, status, latency, trace ID, epoch, cache/hedge outcome)")
		slowQuery    = flag.Duration("slow-query", 500*time.Millisecond, "escalate a request's log line to WARN when it takes at least this long (0 never escalates)")
	)
	flag.Parse()

	if err := wire.ValidBaseURL(*primary); err != nil {
		log.Fatalf("-primary: %v", err)
	}
	followerURLs, err := wire.BaseURLs(*followers)
	if err != nil {
		log.Fatalf("-followers: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	router := client.NewRouter(*primary, followerURLs, nil)
	router.ProbeInterval = *probe
	router.OnEvent = func(ev client.Event) {
		log.Printf("routing: %s %s (%s)", ev.Type, ev.URL, ev.Reason)
	}
	p := proxy.New(router, proxy.Options{
		CacheEntries:   *cacheEntries,
		Hedge:          *hedge,
		HedgeCapPct:    *hedgeCap,
		HedgeBudget:    *hedgeBudget,
		HedgeBudgetMax: *hedgeMax,
	})
	if *requestLog {
		p.SetRequestLog(slog.New(obs.NewLineHandler(stderr)), *slowQuery)
	}
	if err := daemon.ServeDebug(ctx, *debugAddr); err != nil {
		log.Fatal(err)
	}

	// The probe loop keeps the live set and the resolved primary fresh;
	// the first sweep runs before serving so early requests have targets.
	router.Probe(ctx)
	go router.Run(ctx) //nolint:errcheck // returns ctx.Err() at shutdown

	// Epoch tracking: updates that bypass this proxy (another proxy, a
	// direct writer) still flush the cache within one poll interval; the
	// response-header path (internal/proxy) narrows the window further on
	// every forwarded read.
	if *statsPoll > 0 {
		go func() {
			tick := time.NewTicker(*statsPoll)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if st, err := router.Stats(ctx); err == nil {
						p.AdvanceEpoch(st.Epoch)
					}
				}
			}
		}()
	}

	log.Printf("edge tier on %s: primary %s, %d follower(s), cache %d entries, hedge %v (cap %d%%)",
		*addr, *primary, len(followerURLs), *cacheEntries, *hedge, *hedgeCap)
	if err := daemon.Serve(ctx, *addr, p); err != nil {
		log.Fatal(err)
	}
	// The requests in flight have drained: flush their buffered lines.
	stderr.Close() //nolint:errcheck // nowhere left to report a failed stderr write
}
