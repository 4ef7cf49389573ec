package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/api"
	"repro/client"
)

// runConfig is one invocation's sizing.
type runConfig struct {
	root    string
	bins    string
	goBuild time.Duration
	seed    int64
	window  time.Duration // measured window
	warm    time.Duration // discarded warm-up before it
	traced  bool
	quick   bool      // smoke sizing: one bring-up per run
	info    io.Writer // human-readable progress and the metric table
}

// run executes one workload once and returns its contract line.
func run(ctx context.Context, sb *sandbox, cfg runConfig, sp spec) (*resultLine, error) {
	// Set up several times and report the median: a single bring-up's time
	// swings with page-cache and scheduler luck. All but the last stack
	// are torn down at once. The traced run reports no set-up metric and
	// sets up once.
	n := sp.bringUps
	if cfg.traced || cfg.quick {
		n = 1
	}
	var st *stack
	var setup []float64
	for i := 0; i < n; i++ {
		if st != nil {
			st.down()
		}
		var err error
		if st, err = bringUp(ctx, sb, cfg.bins, sp, cfg.seed); err != nil {
			return nil, fmt.Errorf("bring-up %d of %s: %w", i+1, sp.name, err)
		}
		setup = append(setup, st.times.total.Seconds())
		fmt.Fprintf(cfg.info, "# bring-up %d: %.2fs (generate %.2f, build %.2f, save %.2f, wal %.2f, restart %.2f, replicas %.2f); %d metagraphs, snapshot %.1f MB\n",
			i+1, st.times.total.Seconds(), st.times.generate.Seconds(), st.times.build.Seconds(), st.times.save.Seconds(),
			st.times.walWrite.Seconds(), st.times.restart.Seconds(), st.times.replicas.Seconds(), st.or.eng.NumMetagraphs(), st.snapMB)
	}
	defer st.down()
	ref, refBase, err := startRef(ctx, sb, sb.dir)
	if err != nil {
		return nil, err
	}
	defer ref.stop()

	// Counter baselines, taken before the first request leaves (traced
	// run only: a scrape is a request, and the untraced window stays
	// free of them).
	var before counters
	if cfg.traced {
		if before, err = scrape(ctx, st); err != nil {
			return nil, err
		}
	}
	w, err := runWindow(ctx, st, refBase, cfg.seed, cfg.warm, cfg.window)
	if err != nil {
		return nil, err
	}
	var after counters
	if cfg.traced { // before the checks below add requests of their own
		if after, err = scrape(ctx, st); err != nil {
			return nil, err
		}
	}
	busy := w.genCPU / (w.length.Seconds() * clients)
	if busy > 0.9 {
		return nil, fmt.Errorf("window invalid: the generator used %.2f of a core per client, so it — not the system — set the pace", busy)
	}

	// Correctness, fail closed. Reads beside a writer cannot be checked
	// one by one (the replica serving them sits at an epoch only it
	// knows), so a writing window is checked after it quiesces: the
	// oracle replays the acked updates and every daemon must then agree
	// with it on the touched and on seeded untouched anchors.
	attempted := w.succeeded(false)
	if sp.writeEvery > 0 {
		ups, err := w.ackedUpdates(st.lsn + 1)
		if err != nil {
			return nil, err
		}
		if err := settle(ctx, st, ups); err != nil {
			return nil, err
		}
	} else if err := w.verifyReads(st); err != nil {
		return nil, err
	}

	vals := make(map[string]float64)
	if cfg.traced {
		err = perLayerMetrics(ctx, cfg, st, w, before, after, busy, vals)
		return finish(cfg, sp, perLayer, vals, attempted, err)
	}
	endToEndMetrics(cfg, st, w, busy, vals)
	vals["setup_s"] = median(setup)
	return finish(cfg, sp, endToEnd, vals, attempted, nil)
}

// perLayerMetrics completes a traced run: the daemons' counters around
// the window, the write probe, the traced chains and their spans, and
// the figures no bound could hold.
func perLayerMetrics(ctx context.Context, cfg runConfig, st *stack, w *window, before, after counters, busy float64, vals map[string]float64) error {
	if err := layerCounters(st, w, before, after, vals); err != nil {
		return err
	}
	vals["gen.busy_share"] = busy
	vals["gen.clients"] = clients
	vals["gen.ref_rtt_us"] = w.refRTT / 1e3
	vals["gen.go_build_s"] = cfg.goBuild.Seconds()
	vals["setup.replicas_s"] = st.times.replicas.Seconds()
	vals["env.nproc"] = float64(runtime.NumCPU())
	vals["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	// What a burst of computation costs — a build, a boot, an update's
	// re-match — and how much memory the daemons hold. None of them held
	// a regression bound on this sandbox (8-27 % run to run, and no
	// yardstick of the benchmark's own tracked them), so they are
	// reported here, from this run's one bring-up and its write probe,
	// and not among the end-to-end metrics.
	vals["build_s"] = st.times.build.Seconds()
	vals["restart_s"] = st.times.restart.Seconds()
	vals["rss_mb"] = w.rssMB()
	ack, lag, err := writeProbe(ctx, st)
	if err != nil {
		return err
	}
	vals["update_p50_ms"] = ack
	vals["replica.lag_ms"] = lag

	tr := newTracer()
	if err := traceLayers(ctx, st, cfg.seed, tr, vals); err != nil {
		return err
	}
	vals["trace.spans"] = float64(len(tr.spans))
	vals["trace.overhead_ns_per_span"] = tr.overheadNS()
	// Reconcile the in-process chain with the out-of-process figure: the
	// chain's self times sum to its outermost span, so whatever of the
	// window's query p50 (as measured, not at the reference speed: the
	// chain is as measured too) that span does not cover — process
	// boundary, kernel socket work, two more schedulers, contention with
	// the other client — is unattributed.
	at, qd := w.byKind(opQuery)
	inProc := spanQuantile(tr.spans, "client.query", "", 0.5, func(s span) int64 { return s.dur() })
	vals["trace.unattributed_ratio"] = 1 - inProc/p50(qd)
	path := filepath.Join(cfg.root, "benchmark", "out", "trace-"+st.sp.name+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(cfg.info, "# %d spans written to %s\n", len(tr.spans), path)

	// The tails, as measured. They are per-layer for the same reason: run
	// to run they spread by 10-60 % (see README).
	p99, subs := subWindowPercentile(at, qd, int64(w.length), 10, 0.99)
	vals["query_p99_us"] = float64(p99) / 1e3
	fmt.Fprintf(cfg.info, "# query_p99_us is the median of %d sub-window p99s over %d samples (0 sub-windows: too few samples, plain quantile)\n", subs, len(qd))
	_, updateDur := w.byKind(opUpdate)
	sorted := sortedCopy(updateDur)
	p := supportedPercentile(len(sorted), 0.9)
	vals["update_tail_ms"] = float64(percentile(sorted, p)) / 1e6
	vals["update_ops_s"] = float64(len(sorted)) / w.length.Seconds()
	if len(sorted) > 0 {
		fmt.Fprintf(cfg.info, "# update_tail_ms is the p%.0f of %d samples (the highest percentile up to p90 with %d beyond it)\n", p*100, len(sorted), tailSamples)
	}
	return nil
}

// endToEndMetrics completes an untraced run with every window-derived
// end-to-end metric. The request metrics are reported at the reference
// speed (see ref.go).
func endToEndMetrics(cfg runConfig, st *stack, w *window, busy float64, vals map[string]float64) {
	_, qd := w.byKind(opQuery)
	_, pd := w.byKind(opProximity)
	_, bd := w.byKind(opBatch)
	reads := float64(w.succeeded(true)) / w.length.Seconds()
	cpu := w.daemonCPU * 1e6 / float64(w.succeeded(false))
	fmt.Fprintf(cfg.info, "# samples: query %d, proximity %d, batch %d; generator busy %.2f of a core per client\n",
		len(qd), len(pd), len(bd), busy)
	fmt.Fprintf(cfg.info, "# reference round trip p50 %.1f us over %d samples: the request metrics below are as measured x %.4f, at the reference speed (%.0f us)\n",
		w.refRTT/1e3, w.refSamples, w.speed, refNominalUS)
	fmt.Fprintf(cfg.info, "# as measured: read_ops_s %.1f, query_p50_us %.1f, proximity_p50_us %.1f, batch_p50_us %.1f, server_cpu_us_per_op %.1f\n",
		reads, p50(qd)/1e3, p50(pd)/1e3, p50(bd)/1e3, cpu)
	vals["snapshot_mb"] = st.snapMB
	vals["read_ops_s"] = reads / w.speed
	vals["query_p50_us"] = p50(qd) / 1e3 * w.speed
	vals["proximity_p50_us"] = p50(pd) / 1e3 * w.speed
	vals["batch_p50_us"] = p50(bd) / 1e3 * w.speed
	vals["server_cpu_us_per_op"] = cpu * w.speed
}

// finish turns the measured values into the result line, printing the
// table on the way; err is the measuring step's, passed through.
func finish(cfg runConfig, sp spec, table []metricDef, vals map[string]float64, attempted int, err error) (*resultLine, error) {
	if err != nil {
		return nil, err
	}
	metrics, err := fill(table, vals)
	if err != nil {
		return nil, err
	}
	cal := calibrate()
	fmt.Fprintf(cfg.info, "# %s seed %d: %d operations, all answered as the oracle does; machine calibration %.2f ms\n", sp.name, cfg.seed, attempted, cal)
	for _, d := range table {
		fmt.Fprintf(cfg.info, "%-32s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
	return &resultLine{Correct: true, Attempted: attempted, Metrics: metrics, calibrationMS: cal}, nil
}

// backends are the daemons holding an engine (the proxy holds none).
func (st *stack) backends() []string {
	if st.follower != "" {
		return []string{st.primary, st.follower}
	}
	return []string{st.primary}
}

// settle brings oracle and stack to the same quiescent epoch after ups
// were acked: every backend must reach LSN st.lsn+len(ups) with no
// compaction pending, the oracle replays ups, and then every endpoint —
// proxy included — must answer the nodes ups added, and the first few
// users, exactly as the oracle does.
func settle(ctx context.Context, st *stack, ups []op) error {
	st.lsn += uint64(len(ups))
	for _, base := range st.backends() {
		if err := awaitLSN(ctx, base, st.lsn); err != nil {
			return err
		}
	}
	anchors := append([]string(nil), st.names[:min(32, len(st.names))]...)
	for _, p := range ups {
		if _, err := st.or.apply(p); err != nil {
			return err
		}
		anchors = append(anchors, p.name)
	}
	endpoints := st.backends()
	if st.proxy != "" {
		endpoints = append(endpoints, st.proxy)
	}
	for _, base := range endpoints {
		c := client.New(base, nil)
		for _, name := range anchors {
			want, err := st.or.rankedDigest(fnvOffset, name)
			if err != nil {
				return err
			}
			resp, err := c.Query(ctx, class, name, queryK)
			if err != nil {
				return fmt.Errorf("%s: query %q after %d updates: %w", base, name, st.lsn, err)
			}
			if observedQuery(resp) != want {
				return fmt.Errorf("%s answers query %q differently from the oracle at LSN %d", base, name, st.lsn)
			}
		}
	}
	return nil
}

// awaitLSN polls one backend's /v1/stats until it has applied lsn and
// folded every overlay.
func awaitLSN(ctx context.Context, base string, lsn uint64) error {
	return poll(ctx, nil, fmt.Sprintf("%s settled at LSN %d", base, lsn), func() (bool, error) {
		s, err := fetchStats(ctx, base)
		if err != nil {
			return true, err
		}
		if s.LSN > lsn {
			return true, fmt.Errorf("%s is at LSN %d, beyond the %d updates acked", base, s.LSN, lsn)
		}
		if s.LSN < lsn || s.PendingCompaction > 0 {
			return false, fmt.Errorf("LSN %d, %d compactions pending", s.LSN, s.PendingCompaction)
		}
		return true, nil
	})
}

// writeProbe sends a few updates through the workload's front door, one
// at a time with nothing else running, and times two things: the ack
// (update_p50_ms) and, on a stack with a follower, ack -> the follower's
// /v1/stats showing the LSN (replica.lag_ms; 0 without one). The next
// update leaves only when this one's aftermath — compactions, the
// follower's apply — is over: back to back, an update ran beside the
// previous one's aftermath or not, as the scheduler had it, and the
// median flipped between 75 and 115 ms.
func writeProbe(ctx context.Context, st *stack) (ackMS, lagMS float64, err error) {
	const samples = 8
	var acks, lags []int64
	var ups []op
	for i := 0; i < samples; i++ {
		p := st.updates.next()
		t := time.Now()
		got, err := issue(ctx, st.routers[0], st.names, p)
		acked := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("probe %v: %w", p, err)
		}
		ups = append(ups, p)
		want := st.lsn + uint64(len(ups))
		if got != want {
			return 0, 0, fmt.Errorf("probe %v acked at LSN %d, want %d", p, got, want)
		}
		acks = append(acks, int64(acked.Sub(t)))
		if st.follower != "" {
			err := poll(ctx, nil, "follower catching up", func() (bool, error) {
				s, err := fetchStats(ctx, st.follower)
				if err != nil {
					return true, err
				}
				if s.LSN < want {
					return false, fmt.Errorf("at LSN %d, want %d", s.LSN, want)
				}
				return true, nil
			})
			if err != nil {
				return 0, 0, err
			}
			lags = append(lags, int64(time.Since(acked)))
		}
		for _, base := range st.backends() {
			if err := awaitLSN(ctx, base, want); err != nil {
				return 0, 0, err
			}
		}
	}
	return p50(acks) / 1e6, p50(lags) / 1e6, settle(ctx, st, ups)
}

// counters are the daemons' own work counts, read over HTTP.
type counters struct {
	served uint64            // op-endpoint requests on the tier the generator talks to
	routed map[string]uint64 // Router.Counts summed over the generator's clients
	proxy  api.ProxyStats
	pend   int // primary's pending compactions
}

// opPaths are the endpoints generator operations land on.
var opPaths = []string{api.PathQuery, api.PathProximity, api.PathUpdate}

func scrape(ctx context.Context, st *stack) (counters, error) {
	c := counters{routed: make(map[string]uint64)}
	front := st.backends()
	if st.proxy != "" {
		front = []string{st.proxy}
		s, err := fetchStats(ctx, st.proxy)
		if err != nil {
			return c, err
		}
		if s.Proxy != nil {
			c.proxy = *s.Proxy
		}
	}
	for _, base := range front {
		cl := client.New(base, nil)
		expo, err := cl.Metrics(ctx)
		if err != nil {
			return c, err
		}
		n, err := sumOpRequests(expo)
		if err != nil {
			return c, fmt.Errorf("%s/metrics: %w", base, err)
		}
		c.served += n
	}
	for _, r := range st.routers {
		for url, n := range r.Counts() {
			c.routed[url] += n
		}
	}
	s, err := fetchStats(ctx, st.primary)
	if err != nil {
		return c, err
	}
	c.pend = s.PendingCompaction
	return c, nil
}

// sumOpRequests totals semprox_http_requests_total over the operation
// endpoints (all status classes) in one Prometheus text exposition.
func sumOpRequests(expo string) (uint64, error) {
	var total uint64
	for _, line := range strings.Split(expo, "\n") {
		if !strings.HasPrefix(line, "semprox_http_requests_total{") {
			continue
		}
		onOp := false
		for _, p := range opPaths {
			onOp = onOp || strings.Contains(line, `path="`+p+`"`)
		}
		if !onOp {
			continue
		}
		_, val, ok := strings.Cut(line, "} ")
		if !ok {
			return 0, fmt.Errorf("malformed sample %q", line)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed sample %q: %w", line, err)
		}
		total += n
	}
	return total, nil
}

// layerCounters turns two scrapes into the count-type layer metrics and
// cross-checks work done against work sent: every request the generator
// sent between the scrapes (warm-up included) must have been served
// exactly once by the tier it was sent to.
func layerCounters(st *stack, w *window, before, after counters, vals map[string]float64) error {
	sent := 0
	for _, l := range w.logs {
		sent += l.sent
	}
	served := after.served - before.served
	if served != uint64(sent) {
		return fmt.Errorf("work-count cross-check: generator sent %d operations, the daemons' request counters say %d", sent, served)
	}
	vals["obs.requests_served"] = float64(served)
	vals["gen.ops_sent"] = float64(sent)
	var reads, follower uint64
	for url, n := range after.routed {
		n -= before.routed[url]
		reads += n
		if url == st.follower {
			follower += n
		}
	}
	vals["client.router_follower_share"] = ratio(follower, reads)
	p0, p1 := before.proxy, after.proxy
	hits, misses := p1.CacheHits-p0.CacheHits, p1.CacheMisses-p0.CacheMisses
	vals["proxy.cache_hit_ratio"] = ratio(hits, hits+misses)
	vals["proxy.hedge_ratio"] = ratio(p1.HedgesIssued-p0.HedgesIssued, p1.Reads-p0.Reads)
	vals["proxy.evictions"] = float64(p1.CacheEvictions - p0.CacheEvictions)
	vals["index.pending_compaction"] = float64(after.pend)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
