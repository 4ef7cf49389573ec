// Command semproxctl is the semprox /v1 API from the command line — a
// thin shell over the typed client package, so scripts and operators
// speak the exact same wire contract (and the same replica-aware
// routing) as in-process consumers. Reads spread across caught-up
// followers with failover to the primary; updates pin to the primary.
//
// Examples:
//
//	# One routed query (round-robin over caught-up followers).
//	semproxctl -primary http://localhost:8080 \
//	           -followers http://localhost:8081,http://localhost:8082 \
//	           -class college -query user-17 -k 5
//
//	# 100 repetitions of the same query; every response must be
//	# byte-identical to the first or the command exits non-zero — a
//	# routed-consistency check across whatever replicas serve them.
//	semproxctl -primary http://localhost:8080 -followers http://localhost:8081 \
//	           -class college -query user-17 -n 100
//
//	# A live update (pinned to the primary), then positions.
//	semproxctl -primary http://localhost:8080 \
//	           -update '{"nodes":[{"type":"user","name":"zoe"}],"edges":[{"u":"zoe","v":"user-1"}]}'
//	semproxctl -primary http://localhost:8080 -stats
//	semproxctl -primary http://localhost:8080 -followers http://localhost:8081 -ready
//
//	# Fetch the primary's Prometheus exposition, filtered to one family
//	# prefix (same retry/timeout policy as every other action).
//	semproxctl -primary http://localhost:8080 -metrics -metrics-prefix semprox_wal
//
// Exactly one action (-query, -x/-y proximity, -update, -stats, -ready,
// -metrics) per invocation; the response JSON (or exposition text) goes
// to stdout, diagnostics to stderr.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("semproxctl: ")
	var (
		primary   = flag.String("primary", "", "primary base URL (required), e.g. http://localhost:8080")
		followers = flag.String("followers", "", "comma-separated follower base URLs to spread reads across")
		class     = flag.String("class", "", "trained class for -query/-proximity")
		query     = flag.String("query", "", "query node name: print the routed ranking")
		proxX     = flag.String("x", "", "proximity pair: first node name (with -y)")
		proxY     = flag.String("y", "", "proximity pair: second node name (with -x)")
		k         = flag.Int("k", 0, "result count (0 = server default)")
		n         = flag.Int("n", 1, "repeat the read n times; all responses must be identical")
		update    = flag.String("update", "", "update JSON {\"nodes\":[...],\"edges\":[...]} to apply through the primary")
		stats     = flag.Bool("stats", false, "print the primary's "+api.PathStats)
		ready     = flag.Bool("ready", false, "print readiness of the primary and every follower; non-zero exit if any is not ready")
		metrics   = flag.Bool("metrics", false, "print the primary's /metrics Prometheus exposition")
		metPrefix = flag.String("metrics-prefix", "", "with -metrics, keep only families whose name starts with this prefix (HELP/TYPE lines included)")
		timeout   = flag.Duration("timeout", 30*time.Second, "overall command timeout")
		counts    = flag.Bool("counts", false, "print per-backend served counts after the reads, routing transitions (admit/eject/primary change) as they happen, and — with -stats against a semproxy edge tier — its hedge/cache counters, to stderr")
	)
	flag.Parse()
	if err := run(*primary, *followers, *class, *query, *proxX, *proxY,
		*update, *metPrefix, *k, *n, *stats, *ready, *metrics, *counts, *timeout); err != nil {
		log.Fatal(err)
	}
}

func run(primary, followers, class, query, proxX, proxY, update, metPrefix string,
	k, n int, stats, ready, metrics, counts bool, timeout time.Duration) error {
	if primary == "" {
		return fmt.Errorf("-primary is required")
	}
	if err := wire.ValidBaseURL(primary); err != nil {
		return fmt.Errorf("-primary: %w", err)
	}
	followerURLs, err := wire.BaseURLs(followers)
	if err != nil {
		return fmt.Errorf("-followers: %w", err)
	}
	actions := 0
	for _, on := range []bool{query != "", proxX != "" || proxY != "", update != "", stats, ready, metrics} {
		if on {
			actions++
		}
	}
	if actions != 1 {
		return fmt.Errorf("pick exactly one of -query, -x/-y, -update, -stats, -ready, -metrics (got %d)", actions)
	}
	if n < 1 {
		return fmt.Errorf("-n must be >= 1, got %d", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	router := client.NewRouter(primary, followerURLs, nil)
	if counts {
		router.OnEvent = func(ev client.Event) {
			fmt.Fprintf(os.Stderr, "semproxctl: routing %s %s (term %d): %s\n",
				ev.Type, ev.URL, ev.Term, ev.Reason)
		}
	}
	if len(followerURLs) > 0 && (query != "" || proxX != "") {
		live := router.Probe(ctx)
		fmt.Fprintf(os.Stderr, "semproxctl: %d/%d followers in rotation\n", live, len(followerURLs))
	}

	switch {
	case ready:
		return printReady(ctx, router)
	case metrics:
		expo, err := router.Primary().Metrics(ctx)
		if err != nil {
			return err
		}
		fmt.Print(filterExposition(expo, metPrefix))
		return nil
	case stats:
		st, err := router.Stats(ctx)
		if err != nil {
			return err
		}
		if err := emit(st); err != nil {
			return err
		}
		// When -primary points at a semproxy edge tier, the stats response
		// carries the proxy extension; -counts renders its hedge and cache
		// counters the way it renders per-backend read counts.
		if p := st.Proxy; counts && p != nil {
			hedgeRate := 0.0
			if p.Reads > 0 {
				hedgeRate = 100 * float64(p.HedgesIssued) / float64(p.Reads)
			}
			fmt.Fprintf(os.Stderr, "semproxctl: edge reads: %d forwarded, hedges %d issued / %d won / %d cancelled (%.1f%% hedge rate)\n",
				p.Reads, p.HedgesIssued, p.HedgesWon, p.HedgesCancelled, hedgeRate)
			hitRate := 0.0
			if lookups := p.CacheHits + p.CacheMisses; lookups > 0 {
				hitRate = 100 * float64(p.CacheHits) / float64(lookups)
			}
			fmt.Fprintf(os.Stderr, "semproxctl: edge cache: %d hits / %d misses (%.1f%%), %d entries / %d bytes resident, %d evictions, %d epoch flushes, epoch %d\n",
				p.CacheHits, p.CacheMisses, hitRate, p.CacheEntries, p.CacheBytes, p.CacheEvictions, p.EpochFlushes, p.Epoch)
		}
		return nil
	case update != "":
		var req api.UpdateRequest
		dec := json.NewDecoder(strings.NewReader(update))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return fmt.Errorf("-update JSON: %w", err)
		}
		resp, err := router.Update(ctx, req)
		if err != nil {
			return err
		}
		return emit(resp)
	case query != "":
		if class == "" {
			return fmt.Errorf("-query needs -class")
		}
		return repeatRead(ctx, router, n, counts, func() (any, error) {
			return router.Query(ctx, class, query, k)
		})
	default: // proximity
		if class == "" || proxX == "" || proxY == "" {
			return fmt.Errorf("proximity needs -class, -x and -y")
		}
		return repeatRead(ctx, router, n, counts, func() (any, error) {
			return router.Proximity(ctx, class, proxX, proxY)
		})
	}
}

// repeatRead runs one routed read n times, demands every response be
// byte-identical to the first (replicas serving a routed query must be
// indistinguishable), prints the response once, and optionally reports
// which backends served.
func repeatRead(ctx context.Context, router *client.Router, n int, counts bool, read func() (any, error)) error {
	var first []byte
	for i := 0; i < n; i++ {
		resp, err := read()
		if err != nil {
			return fmt.Errorf("read %d/%d: %w", i+1, n, err)
		}
		js, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		if first == nil {
			first = js
		} else if !bytes.Equal(js, first) {
			return fmt.Errorf("read %d/%d diverged across replicas:\nfirst: %s\n  now: %s", i+1, n, first, js)
		}
	}
	if counts {
		for url, c := range router.Counts() {
			fmt.Fprintf(os.Stderr, "semproxctl: %8d reads <- %s\n", c, url)
		}
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, first, "", "  "); err != nil {
		return err
	}
	fmt.Println(pretty.String())
	return nil
}

// printReady reports every replica's /v1/readyz as one JSON document and
// fails if any replica is unreachable or not ready.
func printReady(ctx context.Context, router *client.Router) error {
	type replicaState struct {
		URL   string             `json:"url"`
		Error string             `json:"error,omitempty"`
		State *api.ReadyResponse `json:"state,omitempty"`
	}
	var out []replicaState
	allReady := true
	probe := func(c *client.Client) {
		st, err := c.Ready(ctx)
		rs := replicaState{URL: c.BaseURL()}
		if err != nil {
			rs.Error = err.Error()
			allReady = false
		} else {
			rs.State = &st
			if !st.Ready() {
				allReady = false
			}
		}
		out = append(out, rs)
	}
	probe(router.Primary())
	for _, f := range router.Followers() {
		probe(f)
	}
	if err := emit(out); err != nil {
		return err
	}
	if !allReady {
		return fmt.Errorf("not all replicas ready")
	}
	return nil
}

// filterExposition keeps only families whose metric name starts with
// prefix. Comment lines (# HELP, # TYPE) filter on the name they
// annotate, samples on the series name, so the output stays a valid
// exposition fragment.
func filterExposition(expo, prefix string) string {
	if prefix == "" {
		return expo
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(expo, "\n"), "\n") {
		name := line
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name = rest
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = rest
		}
		if strings.HasPrefix(name, prefix) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// emit prints v as indented JSON on stdout.
func emit(v any) error {
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}
