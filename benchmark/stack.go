package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/wal"
)

// spec is one workload: which system is stood up and what traffic the
// window drives at it. The four specs are the whole workload table; no
// code elsewhere branches on a workload's name.
type spec struct {
	name string
	salt int // stream discriminator, so workloads at one seed share no ops

	// The offline side: a LinkedIn-like graph of this many users, mined
	// to this metagraph size. 10 000 / 3 gives 3 metagraphs and a cheap
	// update (~0.1 s); 1 000 / 4 gives 12 metagraphs, a mining- and
	// matching-dominated build, and an update that re-matches nearly the
	// whole graph (~0.6 s).
	users, maxNodes int
	// walRecords seeded updates are written to a fresh WAL before the
	// primary boots, so its start-up is snapshot load + replay.
	walRecords int

	// bringUps is how many times an untraced run sets the system up;
	// setup_s is the median over them.
	bringUps int

	follower bool // a streaming read replica behind the Router
	proxy    bool // an out-of-process semproxy in front of the backends

	zipf bool // Zipf(1.2) anchors instead of uniform
	// writeEvery > 0 makes client 0 a writer: one update per interval on
	// a fixed schedule (open loop, latency counted from the due time),
	// while client 1 keeps reading in a closed loop. The rate is fixed,
	// not closed-loop, for two reasons. Every update publishes two new
	// epochs (patch, then compaction) and the first ranked read on each
	// rebuilds the index's whole partner table (~0.3 s here): behind a
	// closed-loop writer the reader completes a few dozen queries per
	// window, too few to measure. And at a fixed rate the write work per
	// second is constant, so a costlier write path shows up as fewer
	// reads and more server CPU per op instead of as fewer writes. One
	// update every 3 s, not every second: those rebuilds are bursts of
	// computation, which the reference round trip (ref.go) does not
	// track, and at one a second — two fifths of the reader's time —
	// read_ops_s and CPU per op spread 12 % and 18 % from run to run; at
	// one every 3 s, 4 % and 5 %.
	writeEvery time.Duration
	// tracedUpdates is how many updates the traced run walks through the
	// write chain (each costs about three updates: one per depth).
	tracedUpdates int
}

var specs = []spec{
	{name: "read_direct", salt: 1, users: 5000, maxNodes: 3, bringUps: 3, follower: true, tracedUpdates: 6},
	{name: "read_edge_zipf", salt: 2, users: 5000, maxNodes: 3, bringUps: 3, follower: true, proxy: true, zipf: true, tracedUpdates: 6},
	{name: "mixed_rw", salt: 3, users: 5000, maxNodes: 3, bringUps: 3, follower: true, writeEvery: 3 * time.Second, tracedUpdates: 6},
	{name: "lifecycle", salt: 4, users: 600, maxNodes: 4, bringUps: 5, walRecords: 2, tracedUpdates: 3},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// colleges mirrors dataset.LinkedIn's pool sizing (users/40, at least 3):
// the college-<i> names updates attach to.
func (s spec) colleges() int { return max(s.users/40, 3) }

// upTimes is where one bring-up's wall time went.
type upTimes struct {
	generate time.Duration // dataset.LinkedIn
	build    time.Duration // NewEngine (mine) + Train (match, merge, learn)
	save     time.Duration // Engine.Save to the snapshot file
	walWrite time.Duration // seeding spec.walRecords through the wal package
	restart  time.Duration // exec semproxd -> ready AND first oracle-correct answer
	replicas time.Duration // follower bootstrap + proxy start + Router probes
	total    time.Duration
}

// stack is one running system under test plus its oracle.
type stack struct {
	sp    spec
	or    *oracle
	names []string // user-<i>
	// examples are the training triplets the engine was trained on (the
	// traced run re-times core.Train on them).
	examples []semprox.Example
	dir      string
	times    upTimes
	snapMB   float64

	daemons  []*proc // every process serving this stack
	primary  string  // base URLs
	follower string
	proxy    string
	// routers are the generator's front doors, one per client, each with
	// its own one-connection transport.
	routers []*client.Router
	conns   []*http.Client
	// updates is the stack's one update stream — WAL seeding, the
	// follower's wake-up write, the window's writer and the probe all
	// draw from it in turn — and lsn the last LSN acked so far.
	updates *updateStream
	lsn     uint64
}

// engineOptions is cmd/loadgen's stack recipe: a short training run keeps
// bring-up in seconds; Workers 0 means one per CPU.
func engineOptions(maxNodes int) semprox.Options {
	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: maxNodes, MinSupport: 5}
	opts.Train.Restarts = 1
	opts.Train.MaxIters = 60
	return opts
}

func generate(sp spec, seed int64) *dataset.Dataset {
	return dataset.LinkedIn(dataset.Config{Users: sp.users, Seed: seed, NoiseRate: 0.05})
}

func trainingExamples(ds *dataset.Dataset, seed int64) []semprox.Example {
	labels := ds.Classes[class]
	return semprox.MakeExamples(labels, labels.Queries(), ds.Users(), 100, seed)
}

// clientTransport gives one generator client exactly one keep-alive
// connection per backend: a closed-loop client has one request in flight,
// and a wider pool would hide connection churn.
func clientTransport() *http.Client {
	return &http.Client{
		Timeout:   client.DefaultTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: 90 * time.Second},
	}
}

// bringUp builds the workload's system from nothing: dataset, offline
// pipeline, snapshot, optional seeded WAL, then the real daemons out of
// process with default flags, each verified ready — the primary also
// verified against the oracle — before the next starts.
func bringUp(ctx context.Context, sb *sandbox, bins string, sp spec, seed int64) (*stack, error) {
	dir, err := sb.subdir(sp.name)
	if err != nil {
		return nil, err
	}
	st := &stack{sp: sp, dir: dir, names: make([]string, sp.users)}
	for i := range st.names {
		st.names[i] = userName(i)
	}
	t0 := time.Now()
	ds := generate(sp, seed)
	st.times.generate = time.Since(t0)

	t := time.Now()
	eng, err := semprox.NewEngine(ds.G, "user", engineOptions(sp.maxNodes))
	if err != nil {
		return nil, err
	}
	st.examples = trainingExamples(ds, seed)
	eng.Train(class, st.examples)
	st.times.build = time.Since(t)

	t = time.Now()
	snap := filepath.Join(dir, "engine.snap")
	// Atomically and durably, as semproxd -save writes its snapshot.
	if err := atomicfile.WriteWith(snap, eng.Save); err != nil {
		return nil, fmt.Errorf("saving snapshot: %w", err)
	}
	st.times.save = time.Since(t)
	fi, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	st.snapMB = float64(fi.Size()) / 1e6

	st.or = newOracle(eng)
	st.updates = newUpdateStream(seed, sp.salt, sp.colleges())
	walDir := filepath.Join(dir, "wal")
	t = time.Now()
	seeded, err := seedWAL(walDir, st.or, st.updates, sp.walRecords, eng.LSN())
	if err != nil {
		return nil, err
	}
	st.times.walWrite = time.Since(t)
	// The oracle catches up outside the clock: it is the benchmark's
	// reference, not part of the system being stood up.
	pause := time.Now()
	for _, p := range seeded {
		if _, err := st.or.apply(p); err != nil {
			return nil, err
		}
	}
	paused := time.Since(pause)
	seedPause := paused
	st.lsn = uint64(len(seeded))

	// The primary, durable: -snapshot + -wal with the default fsync
	// policy. Its first answer is checked on the node the last seeded
	// record added (or user-0), so "ready" means replay really finished.
	t = time.Now()
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	st.primary = "http://" + addr
	p, err := sb.start("primary", dir, filepath.Join(bins, "semproxd"), "-addr", addr, "-snapshot", snap, "-wal", walDir)
	if err != nil {
		return nil, err
	}
	st.daemons = append(st.daemons, p)
	probe := st.names[0]
	if len(seeded) > 0 {
		probe = seeded[len(seeded)-1].name
	}
	if err := awaitCorrect(ctx, p, st.primary, st.or, probe); err != nil {
		return nil, err
	}
	st.times.restart = time.Since(t)

	t = time.Now()
	front, frontFollowers := st.primary, []string(nil)
	if sp.follower {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		st.follower = "http://" + addr
		p, err := sb.start("follower", dir, filepath.Join(bins, "semproxd"), "-addr", addr, "-follow", st.primary)
		if err != nil {
			return nil, err
		}
		st.daemons = append(st.daemons, p)
		// A follower turns ready only when its first long poll returns,
		// and against an idle primary that is the daemon's 10 s poll wait.
		// One write wakes it: as soon as the follower is listening (its
		// bootstrap is done and it is polling), the first update of the
		// stream goes to the primary, and the follower is ready once it
		// has applied it.
		if err := awaitListening(ctx, p, st.follower); err != nil {
			return nil, err
		}
		wake := st.updates.next()
		primary := client.New(st.primary, nil)
		if _, err := primary.Update(ctx, updateRequest(wake)); err != nil {
			return nil, fmt.Errorf("wake update: %w", err)
		}
		st.lsn++
		pause = time.Now()
		if _, err := st.or.apply(wake); err != nil {
			return nil, err
		}
		paused += time.Since(pause)
		probe = wake.name
		if err := awaitCorrect(ctx, p, st.follower, st.or, probe); err != nil {
			return nil, err
		}
		frontFollowers = []string{st.follower}
	}
	if sp.proxy {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		st.proxy = "http://" + addr
		p, err := sb.start("proxy", dir, filepath.Join(bins, "semproxy"), "-addr", addr,
			"-primary", st.primary, "-followers", strings.Join(frontFollowers, ","))
		if err != nil {
			return nil, err
		}
		st.daemons = append(st.daemons, p)
		if err := awaitCorrect(ctx, p, st.proxy, st.or, probe); err != nil {
			return nil, err
		}
		front, frontFollowers = st.proxy, nil
	}
	for c := 0; c < clients; c++ {
		hc := clientTransport()
		st.conns = append(st.conns, hc)
		r := client.NewRouter(front, frontFollowers, hc)
		// Probe once, deterministically, instead of running the probe
		// loop beside the measurement: nothing fails in a valid run, so
		// the live set cannot change, and the router's background polls
		// would share the client's single connection.
		if err := awaitLive(ctx, r, len(frontFollowers)); err != nil {
			return nil, err
		}
		st.routers = append(st.routers, r)
	}
	st.times.replicas = time.Since(t) - (paused - seedPause)
	st.times.total = time.Since(t0) - paused
	return st, nil
}

// seedWAL writes n updates from the stream to a fresh WAL the way the
// server's update path does (AppendAsync + WaitDurable, one writer).
func seedWAL(dir string, or *oracle, us *updateStream, n int, baseLSN uint64) ([]op, error) {
	if n == 0 {
		return nil, nil
	}
	w, err := wal.Open(dir, wal.Options{BaseLSN: baseLSN})
	if err != nil {
		return nil, err
	}
	ops := make([]op, n)
	next := semprox.NodeID(or.eng.Graph().NumNodes())
	for i := range ops {
		ops[i] = us.next()
		// Deltas are built against the graph as it will be at replay:
		// record i adds node next+i.
		d := semprox.Delta{
			Nodes: []semprox.DeltaNode{{Type: "user", Value: ops[i].name}},
			Edges: []semprox.Edge{{U: next + semprox.NodeID(i), V: or.ids[ops[i].target]}},
		}
		lsn, err := w.AppendAsync(d)
		if err == nil {
			err = w.WaitDurable(lsn)
		}
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("seeding WAL record %d: %w", i, err)
		}
	}
	return ops, w.Close()
}

// pollEvery is the poll period of every wait below: short against the
// boot times being measured (hundreds of ms), long against a loopback
// round trip.
const pollEvery = 2 * time.Millisecond

// poll calls cond every pollEvery until it reports done. cond's error is
// final when done is true and merely the latest reason for waiting when
// it is false. A watched daemon (p may be nil) that exits first, or a
// minute without success, fails with what was being waited for and p's
// log tail.
func poll(ctx context.Context, p *proc, what string, cond func() (done bool, err error)) error {
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	var exited <-chan struct{}
	tail := func() string { return "" }
	if p != nil {
		exited, tail = p.exited, func() string { return "\n" + p.logTail() }
	}
	deadline := time.Now().Add(time.Minute)
	for {
		done, err := cond()
		if done {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-exited:
			return fmt.Errorf("%s: the daemon exited%s", what, tail())
		case <-tick.C:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not after a minute (last: %v)%s", what, err, tail())
		}
	}
}

// awaitCorrect waits until the daemon at base reports ready and answers
// a query on probe exactly as the oracle does.
func awaitCorrect(ctx context.Context, p *proc, base string, or *oracle, probe string) error {
	c := client.New(base, nil)
	c.Retries = 0
	want, err := or.rankedDigest(fnvOffset, probe)
	if err != nil {
		return err
	}
	return poll(ctx, p, p.name+" ready", func() (bool, error) {
		if r, err := c.Ready(ctx); err != nil {
			return false, err
		} else if !r.Ready() {
			return false, fmt.Errorf("status %s", r.Status)
		}
		resp, err := c.Query(ctx, class, probe, queryK)
		if err != nil {
			return false, err
		}
		if observedQuery(resp) != want {
			return true, fmt.Errorf("%s is ready but answers query %q differently from the oracle", p.name, probe)
		}
		return true, nil
	})
}

// awaitListening waits until the daemon answers /v1/readyz at all, ready
// or not.
func awaitListening(ctx context.Context, p *proc, base string) error {
	c := client.New(base, nil)
	return poll(ctx, p, p.name+" listening", func() (bool, error) {
		_, err := c.Ready(ctx)
		return err == nil, err
	})
}

// awaitLive probes until the router has admitted want followers.
func awaitLive(ctx context.Context, r *client.Router, want int) error {
	return poll(ctx, nil, "router admitting its followers", func() (bool, error) {
		if n := r.Probe(ctx); n < want {
			return false, fmt.Errorf("%d of %d live", n, want)
		}
		return true, nil
	})
}

// down stops the stack's daemons (the sandbox reaps whatever is left at
// exit) and frees its directory.
func (st *stack) down() {
	for i := len(st.daemons) - 1; i >= 0; i-- {
		st.daemons[i].stop()
	}
	for _, hc := range st.conns {
		hc.CloseIdleConnections()
	}
	os.RemoveAll(st.dir)
}

// fetchStats reads /v1/stats from one daemon directly.
func fetchStats(ctx context.Context, base string) (api.StatsResponse, error) {
	c := client.New(base, nil)
	c.Retries = 0
	return c.Stats(ctx)
}
