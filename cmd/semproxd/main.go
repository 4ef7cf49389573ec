// Command semproxd serves semantic proximity queries over HTTP — the
// online half of the paper's framework (Fig. 3) behind a deployable
// binary. It either runs the offline pipeline itself (generate dataset →
// mine → match → train) or starts instantly from an engine snapshot, can
// write a snapshot after training so the next start skips the offline
// phase entirely, and optionally runs durable (-wal) or as a read replica
// of another semproxd (-follow).
//
// Examples:
//
//	# Offline build at startup, then serve on :8080 and persist the
//	# trained engine for the next start.
//	semproxd -dataset linkedin -users 400 -save engine.snap
//
//	# Durable primary: every /v1/update is fsynced to the write-ahead log
//	# before it is applied; a crash (kill -9) replays the log tail on the
//	# next boot, so no acknowledged update is ever lost.
//	semproxd -snapshot engine.snap -wal /var/lib/semprox/wal
//
//	# Read replica: bootstrap from the primary's snapshot endpoint,
//	# stream its log, serve identical /v1/query answers. /v1/readyz flips
//	# to 200 once caught up; /v1/update on a follower is 503.
//	semproxd -follow http://primary:8080 -addr :8081
//
//	# Query either of them. Every endpoint lives under /v1 (the wire
//	# contract is the api package); any other path is a 404.
//	curl 'localhost:8080/v1/query?class=college&query=user-17&k=5'
//	curl -d '{"class":"college","queries":["user-17","user-3"],"k":5}' localhost:8080/v1/query
//
//	# Or skip curl: cmd/semproxctl wraps the typed client package and
//	# spreads reads across caught-up followers with failover.
//	semproxctl -primary http://localhost:8080 -followers http://localhost:8081 \
//	           -class college -query user-17 -k 5
//
//	# Mutate the live graph through the primary (queries keep serving;
//	# the epoch swaps atomically, the WAL makes it durable, followers
//	# stream it), then inspect positions.
//	curl -d '{"nodes":[{"type":"user","name":"zoe"}],"edges":[{"u":"zoe","v":"school-3"}]}' localhost:8080/v1/update
//	curl localhost:8080/v1/stats
//	curl localhost:8081/v1/readyz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	semprox "repro"
	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire/daemon"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("semproxd: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		snapshot   = flag.String("snapshot", "", "start from this engine snapshot instead of training")
		save       = flag.String("save", "", "write the trained engine snapshot here before serving")
		walDir     = flag.String("wal", "", "write-ahead log directory: fsync every /update before applying it, replay the log tail on boot, serve /replicate to followers")
		follow     = flag.String("follow", "", "run as a read replica of the primary at this base URL (e.g. http://host:8080); offline flags are ignored")
		stateDir   = flag.String("state", "", "follower-local state directory (snapshot + WAL): replicated records fsync here before applying, restarts resume from local state instead of re-bootstrapping, and promotion (-peers) serves writes from this log")
		peers      = flag.String("peers", "", "comma-separated base URLs of the other replication nodes: the follower monitors its primary and runs a promotion election when it dies (requires -state and -advertise)")
		advertise  = flag.String("advertise", "", "this node's own base URL as peers reach it (the identity used in promotion elections)")
		ackQuorum  = flag.Int("ack-replicas", 0, "if >0, hold each /update ack until a follower confirms durably applying it (synchronous replication: acked writes survive losing the primary)")
		dsName     = flag.String("dataset", "linkedin", "built-in dataset: linkedin or facebook (ignored with -snapshot)")
		users      = flag.Int("users", 400, "user count for built-in datasets (ignored with -snapshot)")
		classes    = flag.String("classes", "", "comma-separated classes to train (default: all dataset classes; ignored with -snapshot)")
		candidates = flag.Int("candidates", 0, "if >0, use dual-stage training with this many candidates (ignored with -snapshot)")
		nExamples  = flag.Int("examples", 200, "training triplets to sample per class (ignored with -snapshot)")
		maxNodes   = flag.Int("max-nodes", 4, "metagraph size cap (ignored with -snapshot)")
		minSupport = flag.Int("min-support", 5, "MNI support threshold for mining (ignored with -snapshot)")
		workers    = flag.Int("workers", 0, "offline matching workers, used when training (<1 = all CPUs; overrides a snapshot's setting)")
		seed       = flag.Int64("seed", 1, "random seed (ignored with -snapshot)")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables profiling endpoints")
		requestLog = flag.Bool("request-log", true, "emit one structured log line per request (endpoint, status, latency, trace ID, epoch)")
		slowQuery  = flag.Duration("slow-query", 500*time.Millisecond, "escalate a request's log line to WARN when it takes at least this long (0 never escalates)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler *server.Server
	var shutdown func()
	var err error
	if *follow != "" {
		handler, shutdown, err = buildFollower(ctx, *follow, *workers, *walDir, *save,
			*stateDir, *peers, *advertise, *ackQuorum)
	} else if *ackQuorum > 0 && *walDir == "" {
		err = fmt.Errorf("-ack-replicas needs -wal (synchronous replication rides the log)")
	} else {
		handler, shutdown, err = buildPrimary(*snapshot, *save, *walDir, *dsName, *users,
			*classes, *candidates, *nExamples, *maxNodes, *minSupport, *workers, *seed)
		if err == nil {
			handler.SetAckReplicas(*ackQuorum)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if *requestLog {
		handler.SetRequestLog(slog.New(slog.NewTextHandler(os.Stderr, nil)), *slowQuery)
	}
	if err := daemon.ServeDebug(ctx, *debugAddr); err != nil {
		log.Fatal(err)
	}
	if err := daemon.Serve(ctx, *addr, handler); err != nil {
		log.Fatal(err)
	}
	// Let in-flight background compactions from /update finish, then
	// release the durability/replication resources.
	handler.WaitCompactions()
	shutdown()
}

// buildFollower boots a read replica — from its local state directory
// when one exists (restart without re-downloading), else from the
// primary's snapshot endpoint — and starts the streaming loop. With
// -peers and -advertise it also starts the promotion monitor: when the
// primary goes dark and this node wins the election, the follower's
// local log is sealed under a raised term and the server flips to
// serving writes on it.
func buildFollower(ctx context.Context, primaryURL string, workers int, walDir, save,
	stateDir, peersCSV, advertise string, ackQuorum int) (*server.Server, func(), error) {
	if err := replica.ValidPrimaryURL(primaryURL); err != nil {
		return nil, nil, fmt.Errorf("-follow: %w", err)
	}
	if walDir != "" || save != "" {
		return nil, nil, fmt.Errorf("-wal and -save apply to primaries; a follower's durable state lives in -state")
	}
	var peers []string
	if peersCSV != "" {
		if stateDir == "" || advertise == "" {
			return nil, nil, fmt.Errorf("-peers needs -state (promotion serves writes from the local log) and -advertise (the election identity)")
		}
		if err := replica.ValidPrimaryURL(advertise); err != nil {
			return nil, nil, fmt.Errorf("-advertise: %w", err)
		}
		for _, p := range strings.Split(peersCSV, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	f := replica.NewFollower(primaryURL, nil)
	f.Workers = workers
	f.Dir = stateDir
	start := time.Now()
	restored, err := f.Restore()
	if err != nil {
		// Local state that fails to restore is abandoned, not fatal: a
		// fresh bootstrap overwrites it and the node still joins.
		log.Printf("restore from %s failed (%v); bootstrapping fresh", stateDir, err)
	}
	if restored {
		eng := f.Engine()
		log.Printf("restored from %s in %.2fs: %d nodes, LSN %d, term %d",
			stateDir, time.Since(start).Seconds(), eng.Graph().NumNodes(), eng.LSN(), f.Status().Term)
	} else {
		if err := f.Bootstrap(ctx); err != nil {
			return nil, nil, err
		}
		eng := f.Engine()
		log.Printf("bootstrapped from %s in %.2fs: %d nodes, %d metagraphs, classes %v, LSN %d",
			primaryURL, time.Since(start).Seconds(), eng.Graph().NumNodes(),
			eng.NumMetagraphs(), eng.Classes(), eng.LSN())
	}
	runCtx, stopRun := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		if err := f.Run(runCtx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("replication stopped: %v", err)
		}
	}()
	handler := server.New(f.Engine())
	handler.SetFollower(f)
	if len(peers) > 0 {
		go func() {
			m := &replica.Monitor{F: f, Self: advertise, Peers: peers}
			if err := m.Run(ctx); err != nil {
				return // shutdown
			}
			log.Printf("primary %s unreachable and this node won the election; promoting", f.PrimaryURL())
			stopRun()
			<-runDone
			w, err := handler.PromoteFollower()
			if err != nil {
				// Run and the Monitor are both gone, so nothing would retry
				// and /v1/readyz would answer ready/follower from the last
				// poll's flags forever. Exit: a restart resumes from -state.
				log.Fatalf("PROMOTION FAILED: %v (exiting; a restart resumes from %s)", err, stateDir)
			}
			handler.SetAckReplicas(ackQuorum)
			log.Printf("promoted: accepting writes at term %d from LSN %d", w.Term(), w.NextLSN()-1)
		}()
	}
	return handler, func() {
		stopRun()
		if err := f.Close(); err != nil {
			log.Printf("follower close: %v", err)
		}
	}, nil
}

// buildPrimary loads or trains an engine, replays the WAL tail over it
// (crash recovery), persists the requested snapshot, and wires the WAL
// into the server.
func buildPrimary(snapshot, save, walDir, dsName string, users int,
	classes string, candidates, nExamples, maxNodes, minSupport, workers int, seed int64) (*server.Server, func(), error) {
	eng, err := buildEngine(snapshot, dsName, users, classes, candidates,
		nExamples, maxNodes, minSupport, workers, seed)
	if err != nil {
		return nil, nil, err
	}

	var w *wal.WAL
	if walDir != "" {
		w, err = wal.Open(walDir, wal.Options{BaseLSN: eng.LSN()})
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		replayed, skipped, err := semprox.ReplayWAL(eng, w)
		if err != nil {
			return nil, nil, err
		}
		if replayed > 0 || skipped > 0 {
			eng.Compact()
			log.Printf("recovered %d logged updates in %.2fs (engine now at LSN %d, epoch %d)",
				replayed, time.Since(start).Seconds(), eng.LSN(), eng.Epoch())
		}
		if skipped > 0 {
			log.Printf("WARNING: replay reproduced %d recorded skip(s): record(s) this primary logged, "+
				"then rejected and alarmed about before a crash (a rejection NOT recorded in the "+
				"log's skip list would have failed this boot instead)", skipped)
		}
	}

	// Snapshot after recovery, so it covers every replayed record; the
	// log prefix it covers is then redundant and truncated away.
	if save != "" {
		if err := writeSnapshot(save, eng); err != nil {
			return nil, nil, err
		}
		log.Printf("wrote snapshot %s (LSN %d)", save, eng.LSN())
		if w != nil {
			if err := w.TruncateThrough(eng.LSN()); err != nil {
				return nil, nil, err
			}
		}
	}

	handler := server.New(eng)
	shutdown := func() {}
	if w != nil {
		handler.AttachWAL(w)
		shutdown = func() {
			if err := w.Close(); err != nil {
				log.Printf("wal close: %v", err)
			}
		}
		log.Printf("write-ahead log %s at LSN %d (%d segments)", walDir, w.DurableLSN(), w.SegmentCount())
	}
	return handler, shutdown, nil
}

// buildEngine loads a snapshot or runs the offline pipeline.
func buildEngine(snapshot, dsName string, users int, classes string, candidates,
	nExamples, maxNodes, minSupport, workers int, seed int64) (*semprox.Engine, error) {
	if snapshot != "" {
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		start := time.Now()
		eng, err := semprox.LoadEngine(f)
		if err != nil {
			return nil, err
		}
		// The snapshot carries the saving host's worker count; match on
		// THIS host's CPUs instead.
		eng.SetWorkers(workers)
		log.Printf("loaded snapshot %s in %.2fs: %d metagraphs, classes %v, LSN %d",
			snapshot, time.Since(start).Seconds(), eng.NumMetagraphs(), eng.Classes(), eng.LSN())
		return eng, nil
	}

	var ds *dataset.Dataset
	switch dsName {
	case "linkedin":
		ds = dataset.LinkedIn(dataset.Config{Users: users, Seed: seed, NoiseRate: 0.05})
	case "facebook":
		ds = dataset.Facebook(dataset.Config{Users: users, Seed: seed, NoiseRate: 0.05})
	default:
		return nil, fmt.Errorf("-dataset: unknown dataset %q (have linkedin, facebook)", dsName)
	}
	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: maxNodes, MinSupport: minSupport}
	opts.Workers = workers
	opts.Train.Restarts = 3
	opts.Train.MaxIters = 400

	start := time.Now()
	eng, err := semprox.NewEngine(ds.G, "user", opts)
	if err != nil {
		return nil, err
	}
	log.Printf("mined %d metagraphs from %s (%d nodes) in %.1fs",
		eng.NumMetagraphs(), ds.Name, ds.G.NumNodes(), time.Since(start).Seconds())

	names := ds.ClassNames()
	if classes != "" {
		names = strings.Split(classes, ",")
	}
	for _, class := range names {
		class = strings.TrimSpace(class)
		labels, ok := ds.Classes[class]
		if !ok {
			return nil, fmt.Errorf("dataset %s has no class %q (have %v)", ds.Name, class, ds.ClassNames())
		}
		examples := semprox.MakeExamples(labels, labels.Queries(), ds.Users(), nExamples, seed)
		start := time.Now()
		if candidates > 0 {
			eng.TrainDualStage(class, examples, candidates)
		} else {
			eng.Train(class, examples)
		}
		log.Printf("trained %q on %d examples in %.1fs", class, len(examples), time.Since(start).Seconds())
	}
	return eng, nil
}

// writeSnapshot saves the engine atomically and durably — a crash at any
// point leaves either the old snapshot or the new one, never a truncated
// hybrid.
func writeSnapshot(path string, eng *semprox.Engine) error {
	return atomicfile.WriteWith(path, func(w io.Writer) error { return eng.Save(w) })
}
