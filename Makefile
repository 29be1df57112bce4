GO ?= go

.PHONY: all build test check fuzz vet fmt bench bench-serve lint-examples

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint-examples keeps the examples honest: they document the public
# API, so they must consume only the root fvcache package, never the
# internal engine behind it.
lint-examples:
	@if grep -rn 'fvcache/internal' examples/; then \
		echo "examples/ must import only the public fvcache package"; exit 1; \
	fi

# check is the full robustness gate (see ROADMAP.md "Tier-1 verify").
# Each gate line below carries its own comment.
check: vet lint-examples build
# the build with telemetry compiled out
	$(GO) build -tags obsoff ./...
# the whole suite under the race detector, fvcached e2e tests included
	$(GO) test -race ./...
# the chaos detection matrix over the durable result cache
	$(GO) test -race -count=1 -run='TestChaos' ./internal/resultcache
# config-sharded replay: shards racing over the shared recording stay bit-identical to serial
	$(GO) test -race -count=1 -run='TestParallelReplay|TestPlanShards' ./internal/sim
# the request flight recorder under concurrent writers
	$(GO) test -race -count=1 -run='TestRecorderConcurrency' ./internal/obs/reqtrace
# 3-node fleet: ownership and bit-identity, node-kill fallback and re-join, debug endpoints
	$(GO) test -race -count=1 -run='TestFleet' ./internal/serve
# the consistent-hash ring and the per-peer breakers
	$(GO) test -race -count=1 ./internal/fleet
# telemetry compiled out: the instrumented packages and the public api and client
	$(GO) test -tags obsoff ./internal/obs ./internal/obs/reqtrace ./internal/serve ./internal/sim ./internal/core ./internal/mrc ./api ./client
# fuzz smoke: the hardened trace reader
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReader -fuzztime=5s
# fuzz smoke: the columnar chunk codec
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzColumnCodec -fuzztime=5s
# fuzz smoke: the result-cache entry codec
	$(GO) test ./internal/resultcache -run='^$$' -fuzz=FuzzResultEntry -fuzztime=5s
# zero allocs with telemetry on: serial, fused batch and per-shard replay loops
	$(GO) test -count=1 -run='TestReplayAccessPathZeroAllocs|TestBatchReplayZeroAllocs|TestParallelSteadyReplayZeroAllocs' ./internal/sim
# zero allocs: steady-state chunk decoding
	$(GO) test -count=1 -run='TestChunkedDecodeZeroAllocsSteadyState' ./internal/trace
# zero allocs: the banked Mattson stack update and the direct-mapped table walk
	$(GO) test -count=1 -run='TestMRCSteadyZeroAllocs|TestMRCDMSteadyZeroAllocs' ./internal/mrc
# zero allocs: the result-cache hit path
	$(GO) test -count=1 -run='TestResultCacheHitZeroAllocs' ./internal/resultcache
# zero allocs: the request span hot path
	$(GO) test -count=1 -run='TestSpanHotPathZeroAllocs' ./internal/obs/reqtrace
# telemetry.json validation, fvcached smoke and crash recovery, serveload smoke
	$(GO) test -count=1 -run='TestTelemetry|TestServiceSmoke|TestCrashRecovery|TestServeLoadSmoke' .
# one iteration of every benchmark, so the benchmark corpus cannot rot
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
# the committed sweep artifact: core-aware speedup bars, zero allocs, valid telemetry
	$(GO) run ./cmd/benchsweep -verify BENCH_sweep.json
# the committed serving artifact, fleet lane included
	$(GO) run ./cmd/serveload -verify BENCH_serve.json

# bench measures the sweep-engine layers (per-config replay, the fused
# batch, and the config-sharded replay) against live execution and
# writes the BENCH_sweep.json artifact, plus the run's telemetry.json
# snapshot next to it.
bench:
	$(GO) run ./cmd/benchsweep -o BENCH_sweep.json

# bench-serve replays the seeded production-style request mix against
# a spawned fvcached and regenerates BENCH_serve.json (latency
# quantiles per endpoint, hit/coalesce ratios, per-stage time
# attribution), plus the drained server's telemetry_serve.json next to
# it.
bench-serve:
	$(GO) run ./cmd/serveload -o BENCH_serve.json

fuzz:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReader -fuzztime=60s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzColumnCodec -fuzztime=60s
	$(GO) test ./internal/resultcache -run='^$$' -fuzz=FuzzResultEntry -fuzztime=60s

fmt:
	gofmt -w .
