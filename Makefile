# Tier-1 verification plus the invariants this repo adds on top:
#   make ci  — lint (gofmt + vet + the semproxlint analyzer suite),
#              build, race-enabled tests — internal/e2e among them: the
#              real semprox, semproxd, semproxy and semproxctl binaries
#              on loopback (the seed snapshot from semprox -save,
#              replication, routing across a primary kill, failover
#              under a live write stream with zombie fencing, checkpoint
#              after replay, the edge proxy's cache flush and zero failed
#              reads, /metrics + trace IDs + pprof, every binary's flag
#              refusals, the go list -deps guard)
#              — the per-package coverage floors, a bounded fuzz smoke,
#              one iteration of the restart / hub-update / handler-chain
#              benchmarks, and the measurement spine's own check
#              (benchmark/: vet, unit tests and the -quick smoke of all
#              four workloads against out-of-process daemons, every
#              answer checked against the oracle).
#   Numbers come from one place: `go run -C benchmark .` (BENCHMARK.json).
GO ?= go
COVER_FLOOR ?= 80

.PHONY: ci lint vet build test cover fuzz-smoke bench-smoke benchmark-check

ci: lint build test cover fuzz-smoke bench-smoke benchmark-check

# gofmt must be a no-op, vet must be clean, and the repo's own analyzer
# suite (cmd/semproxlint: rawpath, atomicwrite, metricname, envelope,
# ctxfirst, sleepwait — the invariants DESIGN.md used to state as prose)
# must report nothing. semproxlint builds from this repo on the standard
# library alone (it loads packages through `go list -export` and
# type-checks them with go/types), so unlike the external tools it can
# never be "not installed" — it always runs, even for contributors with
# nothing but the Go toolchain. staticcheck and
# govulncheck run when the host has them (the dev container may not);
# CI installs pinned versions and sets REQUIRE_STATICCHECK=1 /
# REQUIRE_GOVULNCHECK=1, turning each "not installed; skipped" branch
# into a hard failure — the lint job can never silently thin itself.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/semproxlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		elif [ -n "$${REQUIRE_STATICCHECK:-}" ]; then \
		echo "FAIL: REQUIRE_STATICCHECK set but staticcheck is not installed"; exit 1; \
		else echo "staticcheck not installed; skipped"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		elif [ -n "$${REQUIRE_GOVULNCHECK:-}" ]; then \
		echo "FAIL: REQUIRE_GOVULNCHECK set but govulncheck is not installed"; exit 1; \
		else echo "govulncheck not installed; skipped"; fi

vet:
	$(GO) vet ./...

# Bounded per-commit fuzzing: every Fuzz* target runs its engine for a
# short budget (FUZZ_TIME, default 5s each) so corpora actually execute
# on every commit instead of only replaying as seed cases (see
# scripts/fuzz_smoke.sh; fails loudly if no targets are found).
fuzz-smoke:
	bash scripts/fuzz_smoke.sh

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Per-package statement-coverage floors. Entries are pkg:floor pairs; a
# bare pkg uses $(COVER_FLOOR). Floors are set to what each package
# honestly sustains today (wal's fault-injection error paths and
# replica's network-failure arms keep those two below the default; index
# and match, the packages under the output goldens, and mining, whose
# orbit counters decide which metagraphs exist at all, sit near 97 %; graph
# and flat, whose decoders read every snapshot off disk and off the wire,
# sit at 96 and 98 %; internal/engine — the engine, the door every trained
# class enters an epoch by, the snapshot codec and LoadEngine's checks —
# keeps the 94 % it held in the root package, measured as then under the
# root's tests, which drive it through the facade: pkg+tests names a second
# package whose tests count toward pkg; the root facade itself sits at 91 %
# and Alg. 1 at 95 %), so any drop is a regression, not noise. "." is the
# root package (./.).
COVER_PKGS ?= .:91 internal/engine+.:94 internal/dualstage:95 internal/core internal/server api client \
	internal/wal:80 internal/replica:75 internal/loadstats:90 internal/atomicfile:80 \
	internal/proxy:85 internal/obs:85 internal/lint:90 internal/wire:90 \
	internal/index:95 internal/match:95 internal/mining:95 \
	internal/graph:95 internal/flat:95
cover:
	@for entry in $(COVER_PKGS); do \
		pkg=$${entry%%:*}; floor=$${entry#*:}; \
		[ "$$floor" = "$$entry" ] && floor=$(COVER_FLOOR); \
		tests=$${pkg#*+}; pkg=$${pkg%%+*}; \
		[ "$$tests" = "$$pkg" ] && tests=; \
		out=$$(mktemp); \
		$(GO) test -coverpkg=./$$pkg -coverprofile=$$out ./$$pkg $${tests:+./$$tests} || exit 1; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		rm -f $$out; \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		awk -v p=$$pct -v f=$$floor 'BEGIN { exit (p + 0 < f + 0) }' \
			|| { echo "FAIL: $$pkg statement coverage $$pct% is below the $$floor% floor"; exit 1; }; \
	done

# One iteration each of the benchmarks no other target runs, so they are
# compiled and executed on every commit (those that restore an engine's
# epoch between iterations live in internal/engine): the snapshot codec (Save and
# LoadEngine — the restart-to-serving path — at the 5 000-user
# read_direct and the 600-user, MaxNodes-4 lifecycle shape, each with its
# snapshot_bytes; the 2 000-user MaxNodes-5 paper shape stays out), the
# merge of the read_direct engine's three matched parts into its one
# index (what adding all three costs; Train adds only the one its w*
# weighs), read_direct's user–college–user counted by SymISO's MatchParts
# (postings/op) and ranked both from the graph, as every engine serves it,
# and from SymISO's runs (candidates/op),
# one Engine.Train on a fresh read_direct and
# lifecycle engine (the rooted count of every metagraph but the two-edge
# metapaths at the example nodes, learning, the full match of what w*
# weighs; the MaxNodes-5 paper shape stays out) and one TrainDualStage at
# K = 2 on the same two engines (the `_dual` cases), the offline
# build of that engine's index, of lifecycle's and of lifecycle's at 2 000
# users through index.Count on one CPU (instances counted, pair keys
# sorted, bytes and allocations reported; paper_2000 stays out), one update
# on the highest-degree node of a LinkedIn-shaped graph, one small update
# on a community graph (`incremental`) and one new user joining college-0
# on the read_direct and lifecycle engines (the update mixed_rw's stream
# sends, folded into flat storage; the pattern is anchored, so the paper
# shape's `paper` and `paper_hub` updates stay out, as paper_2000 does),
# the replay of 512
# logged single-user joins into the read_direct and lifecycle engines
# (ns/record), the ranked scan
# (warm on a small index; `uniform`: seeded random anchors on the 5 000-user
# index under its learned w*, which is what a daemon pays; `dense`: the
# same under uniform weights, where the scan skips no metagraph; and
# `lifecycle`: the 600-user MaxNodes-4 engine, 10 of 12 weights non-zero —
# each with candidates/op, the partners scored), and one query and one
# batch of 8 through the whole server handler chain with the request log
# on (the daemons' handler and buffered writer, over io.Discard) and off
# and `uniform` likewise (allocs/op and candidates/op reported;
# TestServeAllocBudget is the gate, this keeps the benchmarks themselves
# running), one request line formatted by the daemons' handler and by
# slog.TextHandler, both to io.Discard (ns/op and allocs/op), and one
# durable WAL append from one goroutine and from GOMAXPROCS goroutines
# (serial: one fsync per append; parallel: waiters share each group
# commit's fsync).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshot(Save|Load)/(read_direct|lifecycle)$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkIndexMerge$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkTwoEdgeMetapath/(symiso|rank_graph|rank_runs)$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkEngineTrain/(read_direct|lifecycle)(_dual)?$$' -benchtime=1x ./internal/engine
	$(GO) test -run '^$$' -bench 'BenchmarkOfflineIndexBuild/(read_direct|lifecycle|lifecycle_2000)$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkApplyUpdate/^(hub|incremental|read_direct|lifecycle)$$' -benchtime=1x ./internal/engine
	$(GO) test -run '^$$' -bench 'BenchmarkReplayWAL/(read_direct|lifecycle)$$' -benchtime=1x ./internal/engine
	$(GO) test -run '^$$' -bench 'BenchmarkRankTop$$' -benchtime=1x ./internal/engine
	$(GO) test -run '^$$' -bench 'BenchmarkMining/lifecycle$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkServe(Query|Batch)$$' -benchtime=1x ./internal/server
	$(GO) test -run '^$$' -bench 'BenchmarkRequestLine$$' -benchtime=1x ./internal/obs
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend/(serial|parallel)$$' -benchtime=1x ./internal/wal

# The measurement spine compiles against the product and checks it:
# benchmark/ is a module of its own, so `go build ./...` and `go test
# ./...` never touch it, and a product change that breaks its compile
# (it calls index.RematchDelta, graph.Apply, the wal and server packages
# directly) or its oracle would otherwise surface only in an acceptance
# run. Vet, unit tests, and the -quick smoke of all four workloads.
# Needs GOMAXPROCS >= 2 (the smoke skips itself below that).
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .
