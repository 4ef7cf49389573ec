# Tier-1 verification plus the invariants this repo adds on top:
#   make ci  — lint (gofmt + vet + the semproxlint analyzer suite),
#              build, race-enabled tests — internal/e2e among them: the
#              real semproxd, semproxy and semproxctl binaries on
#              loopback (replication, routing across a primary kill,
#              failover under a live write stream with zombie fencing,
#              the edge proxy's cache flush and zero failed reads,
#              /metrics + trace IDs + pprof, the daemons' flag refusals)
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
# replica's network-failure arms keep those two below the default), so
# any drop is a regression, not noise.
COVER_PKGS ?= internal/core internal/server api client \
	internal/wal:80 internal/replica:75 internal/loadstats:90 internal/atomicfile:80 \
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

# One iteration each of the benchmarks no other target runs, so they are
# compiled and executed on every commit: the snapshot codec (Save and
# LoadEngine at 5 000 users — the restart-to-serving path) and the merge
# of that engine's three matched parts into its one index, the offline
# build of that engine's index on one worker (instances counted, bytes and
# allocations reported), one update
# on the highest-degree node of a LinkedIn-shaped graph, the ranked scan
# (warm on a small index, and `uniform`: seeded random anchors on the
# 5 000-user index, which is what a daemon pays), and one query and one
# batch of 8 through the whole server handler chain with the request log
# on and off and `uniform` likewise (allocs/op and candidates/op
# reported; TestServeAllocBudget is the gate, this keeps the benchmarks
# themselves running).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshot(Save|Load)$$|BenchmarkIndexMerge$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkOfflineIndexBuild/read_direct$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkApplyUpdate/hub$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkRankTop$$' -benchtime=1x .
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
