# Tier-1 verification plus the invariants this repo adds on top:
#   make ci  — lint (gofmt + vet + the semproxlint analyzer suite),
#              build, race-enabled tests, the
#              per-package coverage floors (learning core, serving layer,
#              public api + client, WAL, replica, load statistics), a
#              bench smoke run that cross-checks parallel vs serial
#              results on the offline index build and the online top-k
#              scan against a by-key reference, runs a live ApplyUpdate
#              cycle cross-checked against a from-scratch rebuild, a WAL
#              append/replay cycle, and an in-process routed-serving
#              cycle (1 primary + 2 followers, routed == direct), a
#              two-process replication smoke (primary + follower on
#              loopback), a routing smoke
#              (routed client failover across a primary kill), a
#              failover smoke (kill -9 the primary under a live write
#              stream: promotion, no lost acked writes, zombie fencing),
#              an open-loop load smoke (Poisson arrivals against the
#              self-hosted serving stack, error-free with consistent
#              percentiles), the load gate (fresh p99 at each scenario's
#              gate rate vs the committed BENCH_load.json), and the edge
#              proxy smoke (semproxy over real semproxd processes:
#              epoch-keyed cache flush + zero failed reads across a
#              primary kill), and the observability smoke (/metrics on
#              real daemons with moving counters, one trace ID across
#              the proxy and backend request logs, pprof answering),
#              and the measurement spine's own check (benchmark/: vet,
#              unit tests and the -quick smoke of all four workloads
#              against out-of-process daemons, every answer checked
#              against the oracle).
GO ?= go
COVER_FLOOR ?= 80

.PHONY: ci lint vet build test cover fuzz-smoke bench-smoke benchmark-check bench replication-smoke routing-smoke failover-smoke proxy-smoke obs-smoke load-smoke load-smoke-e2e load-gate load-bench proxy-bench

ci: lint build test cover fuzz-smoke bench-smoke benchmark-check replication-smoke routing-smoke failover-smoke proxy-smoke obs-smoke load-smoke load-gate

# gofmt must be a no-op, vet must be clean, and the repo's own analyzer
# suite (cmd/semproxlint: rawpath, atomicwrite, metricname, envelope,
# ctxfirst, sleepwait — the invariants DESIGN.md used to state as prose)
# must report nothing. semproxlint builds from this repo, so unlike the
# external tools it can never be "not installed" — it always runs, even
# for contributors with nothing but the Go toolchain. staticcheck and
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
# replica's network-failure arms keep those two below the default), so
# any drop is a regression, not noise.
COVER_PKGS ?= internal/core internal/server api client \
	internal/wal:80 internal/replica:75 internal/loadstats:90 internal/report:85 \
	internal/proxy:85 internal/obs:85 internal/lint:90 internal/wire:90
cover:
	@for entry in $(COVER_PKGS); do \
		pkg=$${entry%%:*}; floor=$${entry#*:}; \
		[ "$$floor" = "$$entry" ] && floor=$(COVER_FLOOR); \
		out=$$(mktemp); \
		$(GO) test -coverprofile=$$out ./$$pkg || exit 1; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		rm -f $$out; \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		awk -v p=$$pct -v f=$$floor 'BEGIN { exit (p + 0 < f + 0) }' \
			|| { echo "FAIL: $$pkg statement coverage $$pct% is below the $$floor% floor"; exit 1; }; \
	done

# Quick end-to-end bench: verifies identical parallel/serial results for
# the offline build, checks the online top-k scan against a by-key
# reference, runs one live ApplyUpdate cycle whose patched index must
# match a from-scratch rebuild byte-for-byte, runs a WAL append/replay/reopen cycle that must lose no
# record, and stands up the routed-serving stack (primary + 2 followers
# in-process) whose routed answers must be element-identical to direct
# primary answers — all without touching the committed BENCH_*.json
# files. Exits non-zero on any drift. Then one iteration each of the
# snapshot codec benchmarks (Save and LoadEngine at 5 000 users), so the
# restart-to-serving path is compiled and run on every commit, and one
# update on the highest-degree node of a LinkedIn-shaped graph, the case
# the community graphs of the update leg above do not reach, and one
# query and one batch of 8 through the whole server handler chain with
# the request log on and off (allocs/op reported; TestServeAllocBudget
# is the gate, this keeps the benchmarks themselves running).
bench-smoke:
	$(GO) run ./cmd/bench -reps 1 -workers 1,4 -out - -online-out - -update-out - -wal-out - -routing-out - -failover-out -
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshot(Save|Load)$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkApplyUpdate/hub$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkServe(Query|Batch)$$' -benchtime=1x ./internal/server

# The measurement spine compiles against the product and checks it:
# benchmark/ is a module of its own, so `go build ./...` and `go test
# ./...` never touch it, and a product change that breaks its compile
# (it calls index.RematchDelta, graph.Apply, the wal and server packages
# directly) or its oracle would otherwise surface only in an acceptance
# run. Vet, unit tests, and the -quick smoke of all four workloads.
# Needs GOMAXPROCS >= 2 (the smoke skips itself below that).
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# Two-process replication smoke: durable primary + follower on loopback,
# live updates pushed through the typed client (semproxctl), follower
# must reach lag 0 and serve byte-identical query output, legacy aliases
# must match /v1 (see scripts/replication_smoke.sh).
replication-smoke:
	bash scripts/replication_smoke.sh

# Routed-serving smoke: primary + follower + the replica-aware routed
# client on loopback; routed reads must stay byte-identical across
# replicas and keep serving with zero failures after the primary is
# killed (see scripts/routing_smoke.sh).
routing-smoke:
	bash scripts/routing_smoke.sh

# Failover smoke: kill -9 a synchronous primary under a live routed
# write stream; a follower must win the promotion election and resume
# acking the same writer, every acked write must be on the promoted
# primary, and the revived zombie must be fenced — its stream refused,
# its synchronous acks never released (see scripts/failover_smoke.sh).
failover-smoke:
	bash scripts/failover_smoke.sh

# Edge proxy smoke: a real semproxy over real semproxd processes
# (primary + 2 followers on loopback). Repeat reads must go miss -> hit
# byte-identically, an update through the proxy must flush the cache
# under a bumped epoch, and a kill -9 of the primary under a live reader
# must lose zero reads (see scripts/proxy_smoke.sh).
proxy-smoke:
	bash scripts/proxy_smoke.sh

# Observability smoke: real semproxd + semproxy daemons on loopback;
# /metrics must expose the WAL fsync latency, replication lag,
# per-endpoint latency, and hedge/cache families with counters that MOVE
# under traffic, one caller-supplied trace ID must appear in both the
# proxy's and a backend's request logs, the -debug-addr pprof listener
# must answer, and semproxctl -metrics must fetch a prefix-filtered
# exposition (see scripts/obs_smoke.sh).
obs-smoke:
	bash scripts/obs_smoke.sh

# Open-loop load smoke: stand up the real serving stack (durable primary
# + 2 followers behind the routed client, in-process), fire every
# scenario's Poisson stream at its gate rate for a short deterministic
# window, and fail on any request error or inconsistent percentile
# slate. Touches no committed files.
load-smoke:
	$(GO) run ./cmd/loadgen -mode smoke -out -

# The same open-loop smoke fired at real semproxd processes (primary +
# 2 followers on loopback) through loadgen's external mode — the
# cross-check that the harness and the daemon wiring agree (see
# scripts/load_smoke.sh).
load-smoke-e2e:
	bash scripts/load_smoke.sh

# Load regression gate: a fresh short run at each scenario's gate rate,
# compared against the committed BENCH_load.json. Fails when a fresh p99
# exceeds baseline_p99 * 3 + 25ms (explicit tolerances — see cmd/loadgen)
# or when any request errors.
load-gate:
	$(GO) run ./cmd/loadgen -mode gate -out -

# Full benchmark; rewrites BENCH_offline.json, BENCH_online.json,
# BENCH_update.json, BENCH_wal.json, BENCH_routing.json and
# BENCH_failover.json (commit them to extend the perf trajectory).
bench:
	$(GO) run ./cmd/bench

# Full open-loop load sweep; rewrites BENCH_load.json with per-rate
# latency percentiles and each scenario's max sustainable QPS under its
# p99 SLO (commit it to extend the load trajectory).
load-bench:
	$(GO) run ./cmd/loadgen

# Edge-tier A/B; rewrites BENCH_proxy.json: hedged vs unhedged p99 with
# an injected straggler follower, and cache-on vs cache-off max
# sustainable QPS under the Zipf-hot scenario (commit it to extend the
# perf trajectory).
proxy-bench:
	$(GO) run ./cmd/loadgen -mode proxy
