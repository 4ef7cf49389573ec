// Command semproxd serves semantic proximity queries over HTTP: the
// online half of the paper's framework (Fig. 3) behind a deployable
// binary. It trains nothing. A primary starts from an engine snapshot that
// the offline half, `semprox -save`, wrote; a read replica (-follow)
// bootstraps from its primary instead. A primary can run durable (-wal),
// and -save then checkpoints it after the log replay so the next start
// applies nothing again. -save deletes only the sealed log segments the
// checkpoint covers: the active segment stays until the log rotates.
// Every request is logged to stderr, one line each (endpoint, status,
// latency, trace ID, epoch); a request that takes 500 ms or more logs at
// WARN. Neither is a flag.
//
// Examples:
//
//	# Offline: mine, match and train once, and write the snapshot.
//	semprox -dataset linkedin -users 400 -save engine.snap
//
//	# Serve it on :8080. Durable: every /v1/update is fsynced to the
//	# write-ahead log before it is acknowledged; a crash (kill -9) replays the
//	# log tail on the next boot, so no acknowledged update is ever lost.
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
	"slices"
	"syscall"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/wire/daemon"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("semproxd: ")
	// One writer for stderr: the log package's lines and the request log
	// share it, so they keep their order.
	stderr := obs.NewLineWriter(os.Stderr)
	log.SetOutput(stderr)
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		snapshot  = flag.String("snapshot", "", "serve the engine snapshot in this file (write one with semprox -save)")
		save      = flag.String("save", "", "after the log replay, checkpoint the engine to this snapshot file before serving, and delete the sealed log segments it covers (the active segment stays until the log rotates past it)")
		walDir    = flag.String("wal", "", "write-ahead log directory: fsync every /update before acknowledging it, replay the log tail on boot, serve /replicate to followers")
		follow    = flag.String("follow", "", "run as a read replica of the primary at this base URL (e.g. http://host:8080) instead of serving a -snapshot")
		stateDir  = flag.String("state", "", "follower-local state directory (snapshot + WAL): replicated records fsync here before applying, restarts resume from local state instead of re-bootstrapping, and promotion (-peers) serves writes from this log")
		peers     = flag.String("peers", "", "comma-separated base URLs of the other replication nodes: the follower monitors its primary and runs a promotion election when it dies (requires -state and -advertise)")
		advertise = flag.String("advertise", "", "this node's own base URL as peers reach it (the identity used in promotion elections)")
		ackQuorum = flag.Int("ack-replicas", 0, "if >0, hold each /update ack until a follower confirms durably applying it (synchronous replication: acked writes survive losing the primary)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables profiling endpoints")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler *server.Server
	var shutdown func()
	var err error
	if *follow != "" {
		handler, shutdown, err = buildFollower(ctx, *follow, *stateDir, *peers, *advertise, *ackQuorum)
	} else {
		handler, shutdown, err = buildPrimary(*snapshot, *save, *walDir, *ackQuorum)
	}
	if err != nil {
		log.Fatal(err)
	}
	handler.SetRequestLog(slog.New(obs.NewLineHandler(stderr)), obs.SlowRequest)
	if err := daemon.ServeDebug(ctx, *debugAddr); err != nil {
		log.Fatal(err)
	}
	// Serve returns once the requests in flight have drained; the drain
	// ends followers' long polls instead of waiting them out.
	if err := daemon.Serve(ctx, *addr, handler, handler.Drain); err != nil {
		log.Fatal(err)
	}
	// Flush the drained requests' lines; later lines are written at once.
	stderr.Close() //nolint:errcheck // nowhere left to report a failed stderr write
	// Release the durability/replication resources.
	shutdown()
}

// refuseFlags names the first of the given flags set on the command line:
// the role this process runs in would silently ignore it.
func refuseFlags(why string, names ...string) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(names, f.Name) {
			err = fmt.Errorf("-%s %s", f.Name, why)
		}
	})
	return err
}

// buildFollower boots a read replica — from its local state directory
// when one exists (restart without re-downloading), else from the
// primary's snapshot endpoint — and starts the streaming loop. With
// -peers and -advertise it also starts the promotion monitor: when the
// primary goes dark and this node wins the election, the follower's
// local log is sealed under a raised term and the server flips to
// serving writes on it.
func buildFollower(ctx context.Context, primaryURL, stateDir, peersCSV, advertise string,
	ackQuorum int) (*server.Server, func(), error) {
	if err := wire.ValidBaseURL(primaryURL); err != nil {
		return nil, nil, fmt.Errorf("-follow: %w", err)
	}
	if err := refuseFlags("applies to a primary; a follower bootstraps from -follow and keeps its durable state in -state",
		"snapshot", "wal", "save"); err != nil {
		return nil, nil, err
	}
	peers, err := wire.BaseURLs(peersCSV)
	if err != nil {
		return nil, nil, fmt.Errorf("-peers: %w", err)
	}
	if len(peers) > 0 {
		if stateDir == "" || advertise == "" {
			return nil, nil, fmt.Errorf("-peers needs -state (promotion serves writes from the local log) and -advertise (the election identity)")
		}
		if err := wire.ValidBaseURL(advertise); err != nil {
			return nil, nil, fmt.Errorf("-advertise: %w", err)
		}
	}
	f := replica.NewFollower(primaryURL, nil)
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
		log.Printf("restored from %s in %.1fms: %d nodes, LSN %d, term %d",
			stateDir, msSince(start), eng.Graph().NumNodes(), eng.LSN(), f.Status().Term)
	} else {
		if err := f.Bootstrap(ctx); err != nil {
			return nil, nil, err
		}
		eng := f.Engine()
		log.Printf("bootstrapped from %s (%d bytes) in %.1fms: %d nodes, %d metagraphs, classes %v, LSN %d",
			primaryURL, f.SnapshotBytes(), msSince(start), eng.Graph().NumNodes(),
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

// buildPrimary loads the snapshot, replays the WAL tail over it (crash
// recovery), checkpoints it when asked, and wires the WAL into the server.
func buildPrimary(snapshot, save, walDir string, ackQuorum int) (*server.Server, func(), error) {
	if snapshot == "" {
		return nil, nil, errors.New("-snapshot or -follow is required: semproxd trains nothing, so write a snapshot with `semprox -save FILE` and serve it with -snapshot FILE")
	}
	if err := refuseFlags("applies to a follower: it needs -follow", "state", "peers", "advertise"); err != nil {
		return nil, nil, err
	}
	if ackQuorum > 0 && walDir == "" {
		return nil, nil, errors.New("-ack-replicas needs -wal (synchronous replication rides the log)")
	}
	f, err := os.Open(snapshot)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	start := time.Now()
	eng, err := engine.LoadEngine(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	log.Printf("loaded snapshot %s (%d bytes) in %.1fms: %d metagraphs, classes %v, LSN %d",
		snapshot, fi.Size(), msSince(start), eng.NumMetagraphs(), eng.Classes(), eng.LSN())

	var w *wal.WAL
	if walDir != "" {
		w, err = wal.Open(walDir, wal.Options{BaseLSN: eng.LSN()})
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		replayed, _, err := engine.ReplayWAL(eng, w)
		if err != nil {
			return nil, nil, err
		}
		if replayed > 0 {
			log.Printf("recovered %d logged updates in %.1fms (engine now at LSN %d, epoch %d)",
				replayed, msSince(start), eng.LSN(), eng.Epoch())
		}
	}

	// Snapshot after recovery, so it covers every replayed record; the
	// log prefix it covers is then redundant, and the sealed segments
	// holding it are deleted (TruncateThrough keeps the active one).
	if save != "" {
		if err := atomicfile.WriteWith(save, func(w io.Writer) error { return eng.Save(w) }); err != nil {
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
	handler.SetAckReplicas(ackQuorum)
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

// msSince is the time since start in milliseconds, the unit a snapshot
// load or a replay takes.
func msSince(start time.Time) float64 { return float64(time.Since(start).Microseconds()) / 1000 }
