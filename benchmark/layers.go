package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/mining"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/wal"
)

// The traced run: the workload's own seeded operations, one at a time on
// one goroutine in this process, each executed at successive depths of
// the call chain with one span per depth. Measured from outside — the
// product is not instrumented — so every layer's figure is "what a call
// into its public function costs", and a layer's self time is its span
// minus the next one in.

const (
	tracedOps = 2000
	// slowQuery and proxyCacheEntries are the daemons' flag defaults
	// (cmd/semproxd -slow-query, cmd/semproxy -cache-entries): the
	// in-process handlers are configured as the out-of-process ones run.
	slowQuery         = 500 * time.Millisecond
	proxyCacheEntries = 4096
)

// sink keeps the compiler from discarding calls timed only for their cost.
var sink any

// discardLogger formats request-log lines exactly as the daemons do and
// throws them away, so a traced handler pays for its log line.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func mallocsPerOp(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(max(n, 1))
}

func p50(v []int64) float64 { return float64(percentile(sortedCopy(v), 0.5)) }

func post(path string, body any) (*http.Request, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func loadSnapshot(path string) (*semprox.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return semprox.LoadEngine(f)
}

// traceLayers runs every traced chain against st's oracle engine and
// snapshot and stores the per-layer figures in vals.
func traceLayers(ctx context.Context, st *stack, seed int64, tr *tracer, vals map[string]float64) error {
	ix, w, err := traceOffline(st, vals)
	if err != nil {
		return err
	}
	srv := server.New(st.or.eng)
	srv.SetRequestLog(discardLogger(), slowQuery)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := traceReads(ctx, st, seed, tr, vals, srv, ts.URL, ix, w); err != nil {
		return err
	}
	if err := traceProxy(st, seed, tr, vals, ts.URL); err != nil {
		return err
	}
	return traceUpdates(st, seed, tr, vals)
}

// traceOffline times the offline pipeline's layers one by one on the
// stack's graph and returns the merged index (and the class weights) the
// read chain ranks on.
func traceOffline(st *stack, vals map[string]float64) (*index.Index, []float64, error) {
	eng := st.or.eng
	g := eng.Graph()
	opts := engineOptions(st.sp.maxNodes)

	t := time.Now()
	sink = mining.ProximityFilter(mining.Mine(g, opts.Mining), g.Types().ID("user"))
	vals["mining.mine_s"] = time.Since(t).Seconds()

	ms := eng.Metagraphs()
	t = time.Now()
	parts, durs := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(g) }, 0)
	ix := index.Merge(parts...)
	vals["index.build_s"] = time.Since(t).Seconds()
	var matching time.Duration
	for _, d := range durs {
		matching += d
	}
	vals["match.symiso_s"] = matching.Seconds()

	t = time.Now()
	sink = core.Train(ix, st.examples, opts.Train)
	vals["core.train_s"] = time.Since(t).Seconds()

	vals["dataset.generate_s"] = st.times.generate.Seconds()
	vals["semprox.save_s"] = st.times.save.Seconds()
	t = time.Now()
	loaded, err := loadSnapshot(filepath.Join(st.dir, "engine.snap"))
	if err != nil {
		return nil, nil, err
	}
	sink = loaded
	vals["semprox.load_s"] = time.Since(t).Seconds()
	return ix, eng.Weights(class), nil
}

// traceReads walks the read chain, per op kind:
//
//	query:     client.query     > server.serve > semprox.query       > core.rank > index.partners
//	proximity: client.proximity > server.serve > semprox.proximity   > core.proximity
//	batch:     client.batch     > server.serve > semprox.query_batch > core.rank (x8, serial)
//
// The client span crosses loopback to an in-process listener; the server
// span is ServeHTTP on a recorder; core.rank runs on an index this
// benchmark built itself and checks against the engine's answer.
func traceReads(ctx context.Context, st *stack, seed int64, tr *tracer, vals map[string]float64,
	srv *server.Server, url string, ix *index.Index, w []float64) error {
	eng, g := st.or.eng, st.or.eng.Graph()
	hc := clientTransport()
	defer hc.CloseIdleConnections()
	c := client.New(url, hc)
	c.Retries = 0

	var queried []semprox.NodeID
	var partnersLen, resolve, encode, decode, respBytes []int64
	rs := newReadStream(seed, st.sp.salt, 0, st.sp.users, st.sp.zipf)
	for i := 0; i < tracedOps; i++ {
		p := rs.next()
		kind := p.kind.String()
		want, err := st.or.expect(st.names, p)
		if err != nil {
			return err
		}
		x, y := st.or.ids[st.names[p.x]], st.or.ids[st.names[p.y]]
		rec := httptest.NewRecorder()
		switch p.kind {
		case opQuery:
			name := st.names[p.x]
			s0 := tr.begin(i, 0, "client.query", kind)
			resp, err := c.Query(ctx, class, name, queryK)
			tr.end(s0)
			if err != nil || observedQuery(resp) != want {
				return fmt.Errorf("traced %v: in-process client answer wrong (err %v)", p, err)
			}
			req, err := post(api.PathQuery, api.QueryRequest{Class: class, Query: name, K: queryK})
			if err != nil {
				return err
			}
			s1 := tr.begin(i, s0, "server.serve", kind)
			srv.ServeHTTP(rec, req)
			tr.end(s1)
			s2 := tr.begin(i, s1, "semprox.query", kind)
			ranked, err := eng.View().Query(class, x, queryK)
			tr.end(s2)
			if err != nil {
				return err
			}
			s3 := tr.begin(i, s2, "core.rank", kind)
			own := core.RankTop(ix, w, x, queryK)
			tr.end(s3)
			if !slices.Equal(own, ranked) {
				return fmt.Errorf("traced %v: RankTop on the benchmark's index differs from the engine's answer", p)
			}
			s4 := tr.begin(i, s3, "index.partners", kind)
			partners := ix.Partners(x)
			tr.end(s4)
			queried = append(queried, x)
			partnersLen = append(partnersLen, int64(len(partners)))

			// The pieces of the handler's self time that have a public
			// function of their own, timed on this op's real values.
			t := time.Now()
			sink = g.NodeByName(name)
			resolve = append(resolve, int64(time.Since(t)))
			var buf bytes.Buffer
			t = time.Now()
			enc := json.NewEncoder(&buf) // as server.writeJSON encodes
			enc.SetIndent("", "  ")
			if err := enc.Encode(resp); err != nil {
				return err
			}
			encode = append(encode, int64(time.Since(t)))
			var out api.QueryResponse
			t = time.Now()
			if err := json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&out); err != nil { // as client.doWith decodes
				return err
			}
			decode = append(decode, int64(time.Since(t)))
			respBytes = append(respBytes, int64(rec.Body.Len()))
		case opProximity:
			s0 := tr.begin(i, 0, "client.proximity", kind)
			resp, err := c.Proximity(ctx, class, st.names[p.x], st.names[p.y])
			tr.end(s0)
			if err != nil || digestProximity(resp) != want {
				return fmt.Errorf("traced %v: in-process client answer wrong (err %v)", p, err)
			}
			req, err := post(api.PathProximity, api.ProximityRequest{Class: class, X: st.names[p.x], Y: st.names[p.y]})
			if err != nil {
				return err
			}
			s1 := tr.begin(i, s0, "server.serve", kind)
			srv.ServeHTTP(rec, req)
			tr.end(s1)
			s2 := tr.begin(i, s1, "semprox.proximity", kind)
			v, err := eng.View().Proximity(class, x, y)
			tr.end(s2)
			if err != nil {
				return err
			}
			s3 := tr.begin(i, s2, "core.proximity", kind)
			own := core.Proximity(ix, w, x, y)
			tr.end(s3)
			if own != v {
				return fmt.Errorf("traced %v: Proximity on the benchmark's index differs from the engine's", p)
			}
		case opBatch:
			names := make([]string, batchSize)
			qs := make([]semprox.NodeID, batchSize)
			for j, u := range p.batch {
				names[j], qs[j] = st.names[u], st.or.ids[st.names[u]]
			}
			s0 := tr.begin(i, 0, "client.batch", kind)
			resp, err := c.QueryBatch(ctx, class, names, queryK)
			tr.end(s0)
			if err != nil || observedQuery(resp) != want {
				return fmt.Errorf("traced %v: in-process client answer wrong (err %v)", p, err)
			}
			req, err := post(api.PathQuery, api.QueryRequest{Class: class, Queries: names, K: queryK})
			if err != nil {
				return err
			}
			s1 := tr.begin(i, s0, "server.serve", kind)
			srv.ServeHTTP(rec, req)
			tr.end(s1)
			s2 := tr.begin(i, s1, "semprox.query_batch", kind)
			_, err = eng.View().QueryBatch(class, qs, queryK)
			tr.end(s2)
			if err != nil {
				return err
			}
			s3 := tr.begin(i, s2, "core.rank", kind)
			for _, q := range qs {
				sink = core.RankTop(ix, w, q, queryK)
			}
			tr.end(s3)
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("traced %v: handler answered %d: %s", p, rec.Code, rec.Body.String())
		}
	}

	self := selfTimes(tr.spans)
	dur := func(s span) int64 { return s.dur() }
	own := func(s span) int64 { return self[s.ID] }
	us := func(ns float64) float64 { return ns / 1e3 }
	vals["core.rank_us"] = us(spanQuantile(tr.spans, "core.rank", "query", 0.5, dur))
	vals["core.proximity_us"] = us(spanQuantile(tr.spans, "core.proximity", "", 0.5, dur))
	vals["index.partners_us"] = us(spanQuantile(tr.spans, "index.partners", "", 0.5, dur))
	vals["semprox.query_self_us"] = us(spanQuantile(tr.spans, "semprox.query", "", 0.5, own))
	vals["server.query_self_us"] = us(spanQuantile(tr.spans, "server.serve", "query", 0.5, own))
	vals["server.proximity_self_us"] = us(spanQuantile(tr.spans, "server.serve", "proximity", 0.5, own))
	vals["server.batch_self_us"] = us(spanQuantile(tr.spans, "server.serve", "batch", 0.5, own))
	vals["client.query_self_us"] = us(spanQuantile(tr.spans, "client.query", "", 0.5, own))
	vals["graph.resolve_us"] = us(p50(resolve))
	vals["api.encode_us"] = us(p50(encode))
	vals["api.decode_us"] = us(p50(decode))
	vals["api.response_bytes"] = p50(respBytes)
	vals["server.response_bytes"] = p50(respBytes)
	sorted := sortedCopy(partnersLen)
	vals["index.partners_len_p50"] = float64(percentile(sorted, 0.5))
	vals["index.partners_len_p99"] = float64(percentile(sorted, supportedPercentile(len(sorted), 0.99)))
	var scanned int64
	for _, n := range partnersLen {
		scanned += n
	}
	vals["core.candidates_scanned"] = float64(scanned) / float64(max(len(partnersLen), 1))

	// Allocation counts: the same query anchors again, one tight loop per
	// depth, Mallocs delta over the loop.
	vals["core.rank_allocs_op"] = mallocsPerOp(len(queried), func() {
		for _, q := range queried {
			sink = core.RankTop(ix, w, q, queryK)
		}
	})
	vals["semprox.query_allocs_op"] = mallocsPerOp(len(queried), func() {
		for _, q := range queried {
			sink, _ = eng.View().Query(class, q, queryK)
		}
	})
	reqs := make([]*http.Request, len(queried))
	for i, q := range queried {
		var err error
		if reqs[i], err = post(api.PathQuery, api.QueryRequest{Class: class, Query: g.Name(q), K: queryK}); err != nil {
			return err
		}
	}
	vals["server.serve_allocs_op"] = mallocsPerOp(len(reqs), func() {
		for _, req := range reqs {
			srv.ServeHTTP(httptest.NewRecorder(), req)
		}
	})
	return nil
}

// traceProxy serves the workload's single queries through an in-process
// edge proxy (the daemon's default cache and hedge options) in front of
// the in-process backend, one proxy.serve span each, tagged hit or miss.
func traceProxy(st *stack, seed int64, tr *tracer, vals map[string]float64, backend string) error {
	px := proxy.New(client.NewRouter(backend, nil, nil), proxy.Options{CacheEntries: proxyCacheEntries, Hedge: true})
	px.SetRequestLog(discardLogger(), slowQuery)
	rs := newReadStream(seed, st.sp.salt, 0, st.sp.users, st.sp.zipf)
	first := len(tr.spans)
	for i := 0; i < tracedOps; i++ {
		p := rs.next()
		if p.kind != opQuery {
			continue
		}
		req, err := post(api.PathQuery, api.QueryRequest{Class: class, Query: st.names[p.x], K: queryK})
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		id := tr.begin(i, 0, "proxy.serve", "")
		px.ServeHTTP(rec, req)
		tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("traced proxy %v: answered %d: %s", p, rec.Code, rec.Body.String())
		}
		tr.spans[id-1].Kind = rec.Header().Get(proxy.HeaderCache)
	}
	dur := func(s span) int64 { return s.dur() }
	vals["proxy.hit_us"] = spanQuantile(tr.spans[first:], "proxy.serve", "hit", 0.5, dur) / 1e3
	vals["proxy.miss_us"] = spanQuantile(tr.spans[first:], "proxy.serve", "miss", 0.5, dur) / 1e3
	return nil
}

// traceUpdates walks the write chain on private engines loaded from the
// stack's snapshot (each depth mutates, so each depth owns an engine):
//
//	server.serve > semprox.apply_update > graph.apply_delta
//	                                    > index.rematch (every metagraph)
//	             > wal.append_durable
//
// plus index.compact (off the ack path), then replays the WAL it wrote
// into a third engine for the replay cost per record.
func traceUpdates(st *stack, seed int64, tr *tracer, vals map[string]float64) error {
	snap := filepath.Join(st.dir, "engine.snap")
	var engs [3]*semprox.Engine
	for i := range engs {
		var err error
		if engs[i], err = loadSnapshot(snap); err != nil {
			return err
		}
	}
	served, direct, replayed := engs[0], engs[1], engs[2]
	ids := newOracle(direct).ids

	servedLog, err := wal.Open(filepath.Join(st.dir, "trace-wal-served"), wal.Options{BaseLSN: served.LSN()})
	if err != nil {
		return err
	}
	defer servedLog.Close()
	srv := server.New(served)
	srv.AttachWAL(servedLog)
	srv.SetRequestLog(discardLogger(), slowQuery)

	logDir := filepath.Join(st.dir, "trace-wal")
	log, err := wal.Open(logDir, wal.Options{BaseLSN: direct.LSN()})
	if err != nil {
		return err
	}
	defer log.Close()

	us := newUpdateStream(seed, st.sp.salt+100, st.sp.colleges())
	ms := direct.Metagraphs()
	first := len(tr.spans)
	var rematched int
	for i := 0; i < st.sp.tracedUpdates; i++ {
		p := us.next()
		opID := tracedOps + i
		req, err := post(api.PathUpdate, updateRequest(p))
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		s0 := tr.begin(opID, 0, "server.serve", "update")
		srv.ServeHTTP(rec, req)
		tr.end(s0)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("traced %v: handler answered %d: %s", p, rec.Code, rec.Body.String())
		}
		srv.WaitCompactions() // its background compaction must not overlap the next spans

		before := direct.Graph()
		n := semprox.NodeID(before.NumNodes())
		d := semprox.Delta{
			Nodes: []semprox.DeltaNode{{Type: "user", Value: p.name}},
			Edges: []semprox.Edge{{U: n, V: ids[p.target]}},
		}
		s1 := tr.begin(opID, s0, "semprox.apply_update", "update")
		stats, err := direct.ApplyUpdate(d)
		tr.end(s1)
		if err != nil {
			return err
		}
		rematched += stats.Rematched

		s2 := tr.begin(opID, s1, "graph.apply_delta", "update")
		after, touched, err := before.Apply(d)
		tr.end(s2)
		if err != nil {
			return err
		}
		seeds := append(touched, n) // as Engine.applyUpdate seeds: touched + new nodes with edges
		s3 := tr.begin(opID, s1, "index.rematch", "update")
		for _, m := range ms {
			sink = index.RematchDelta(after, m, func(sub *graph.Graph) match.Matcher { return match.NewSymISO(sub) }, seeds)
		}
		tr.end(s3)

		s4 := tr.begin(opID, s0, "wal.append_durable", "update")
		lsn, err := log.AppendAsync(d)
		if err == nil {
			err = log.WaitDurable(lsn)
		}
		tr.end(s4)
		if err != nil {
			return err
		}
		s5 := tr.begin(opID, 0, "index.compact", "update")
		direct.Compact()
		tr.end(s5)
	}
	n := st.sp.tracedUpdates
	spans := tr.spans[first:]
	self := selfTimes(spans)
	dur := func(s span) int64 { return s.dur() }
	ms50 := func(name string, f func(span) int64) float64 { return spanQuantile(spans, name, "", 0.5, f) / 1e6 }
	vals["server.update_self_ms"] = ms50("server.serve", func(s span) int64 { return self[s.ID] })
	vals["semprox.apply_update_ms"] = ms50("semprox.apply_update", dur)
	vals["graph.apply_delta_ms"] = ms50("graph.apply_delta", dur)
	vals["index.rematch_ms"] = ms50("index.rematch", dur)
	vals["index.compact_ms"] = ms50("index.compact", dur)
	vals["wal.append_durable_ms"] = ms50("wal.append_durable", dur)
	vals["semprox.update_rematched"] = float64(rematched) / float64(max(n, 1))

	if err := log.Close(); err != nil {
		return err
	}
	var walBytes int64
	entries, err := os.ReadDir(logDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			walBytes += fi.Size()
		}
	}
	vals["wal.bytes_per_record"] = float64(walBytes) / float64(max(n, 1))
	t := time.Now()
	reopened, err := wal.Open(logDir, wal.Options{BaseLSN: replayed.LSN()})
	if err != nil {
		return err
	}
	defer reopened.Close()
	vals["wal.open_ms"] = float64(time.Since(t)) / 1e6
	t = time.Now()
	applied, _, err := semprox.ReplayWAL(replayed, reopened)
	if err != nil {
		return err
	}
	if applied != n {
		return fmt.Errorf("traced replay applied %d of %d records", applied, n)
	}
	vals["semprox.replay_ms_per_record"] = float64(time.Since(t)) / 1e6 / float64(max(n, 1))
	return nil
}
