# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test race bench benchmark-check bench-record bench-allocs bench-kernels vet fmt ci verify fuzz serve-smoke trace-smoke shard-smoke telemetry-smoke experiments experiments-quick examples clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo benchmark (BENCHMARK.json, benchmark/README.md) is its own Go
# module, so `build`/`test` above never compile it — yet its sut.go is
# written against internal/ceci, enum, service and shard. Vet and test
# it, then run the enumeration-bound and the build-bound workload, short
# and traced, end to end against their pinned counts, the fleet
# workload, which drives service.New, shard.NewRouter and both response
# types over HTTP and checks every reply (a quarter of its classes
# outrun their first cluster at limit 1000: the grow-and-replace step),
# and the churn workload, whose 5 MiB cache puts every reply's pinned
# count behind a one-cluster build or a rebuild after an eviction (also
# a CI step). Two ratios of counts, the same on a fast host and a slow
# one, are read off the runs' last stdout lines: lib_enum's
# enum.calls_per_embedding must not be over 0.05 (0.0104 when a count-only
# run counts its last vertex from a histogram, so a shape that stops
# taking it fails; 0.21 when the last two depths were a product, 0.52
# when it entered the last depth once per candidate of the one before),
# and serve_churn's service.cache_hit_ratio must not be under 0.85 (about
# 0.88 with cardinality columns at the width their values need, 0.83
# with eight-byte ones, 0.73 with four-byte arenas, 0.48 when the cache
# was an LRU).
benchmark-check:
	mkdir -p .bench_build
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
	bash benchmark/run.sh --workload lib_enum --seed 1 --seconds 4 --trace 1 > .bench_build/lib_enum.json
	tail -n 1 .bench_build/lib_enum.json | awk -F'"enum.calls_per_embedding":[{]"value":' \
		'{ r = $$2 + 0; print "lib_enum enum.calls_per_embedding", r, "(must be <= 0.05)"; exit !(r > 0 && r <= 0.05) }'
	bash benchmark/run.sh --workload lib_build --seed 1 --seconds 4 --trace 1
	bash benchmark/run.sh --workload fleet_scatter --seed 1 --seconds 4 --trace 1
	bash benchmark/run.sh --workload serve_churn --seed 1 --seconds 4 --trace 1 > .bench_build/serve_churn.json
	tail -n 1 .bench_build/serve_churn.json | awk -F'"service.cache_hit_ratio":[{]"value":' \
		'{ r = $$2 + 0; print "serve_churn service.cache_hit_ratio", r, "(must be >= 0.85)"; exit !(r >= 0.85) }'

# The committed trajectory (ROADMAP aim 1): every workload of the repo
# benchmark, untraced then traced, seed 1, one child process per run
# (~4.5 min on an otherwise idle box), recorded as BENCH_<PR>.json at the
# repo root. Compare two of them under BENCHMARK.json's bounds with
# `.bench_build/benchmark -compare BENCH_<a>.json BENCH_<b>.json`.
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>"; exit 2; }
	bash benchmark/run.sh -seed 1 -out BENCH_$(PR).json

# Allocation profile of the enumeration hot path: the strict
# AllocsPerRun proof (zero allocations per steady-state step) plus the
# -benchmem view of the Fig-7/8/19 suites. allocs/op on the enumeration
# benchmarks is the number to watch. Then the embedding-page codec: the
# proofs that encoding, decoding and merging a 1000x3 page allocate a
# fixed handful of times — with a shard's span subtree on the reply too —
# and the -benchmem figures beside encoding/json's. Then the spans
# themselves: one costs 3 allocations to open, annotate and end when no
# sink is attached, and a leg's subtree goes onto its reply with none.
# Then the index build where deletion is the cost: a labeled 5-clique on
# 16-label ok_s, preprocessing included (ns/op and B/op history in
# EXPERIMENTS.md; the dead-set buffers are builder scratch, so B/op must
# not grow with the candidates a level drops). Last a data graph's cold
# start: the .lg loader must allocate at most 3x the graph it keeps and
# Labels none, and the hu_s load and its label-grouped adjacency build
# are timed (both about 0.1 s, B/op near the bytes kept).
bench-allocs:
	$(GO) test -run TestEnumerationStepZeroAlloc -v ./internal/enum
	$(GO) test -bench 'Fig7|Fig8|Fig19' -benchmem -benchtime 3x ./cmd/cecibench
	$(GO) test -run 'TestPageCodecAllocs|TestRouteMergeAllocs' -bench 'BenchmarkPage|BenchmarkRouteMerge' -benchmem -v ./internal/service ./internal/shard
	$(GO) test -run TestSpanAllocs -bench 'BenchmarkSpanStartEnd|BenchmarkTraceAppendJSON' -benchmem -v ./internal/obs
	$(GO) test -run '^$$' -bench 'BenchmarkTable2_IndexBuild/ok_s_qg5' -benchmem -benchtime 200x -cpu 1 .
	$(GO) test -run 'TestLoadAllocatesInProportion|TestLabelsIsAView' -bench 'BenchmarkLoadLabeled|BenchmarkLabelIndex' -benchmem -v ./internal/graph

# Intersection-kernel health check: the per-kernel microbenchmarks
# (merge / gallop / probe / adaptive dispatch). How the kernels
# share a real enumeration is the setops.* rows of a traced lib_enum run
# (benchmark-check above, or any committed BENCH_<PR>.json).
bench-kernels:
	$(GO) test -bench 'BenchmarkKernel' -benchmem ./internal/setops

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Differential correctness: the cross-matcher oracle and metamorphic
# invariants (internal/verify), raced, plus a seed sweep via cecirun.
verify:
	$(GO) test -race -run Differential ./internal/verify
	$(GO) run ./cmd/cecirun -verify -seed 1 -pairs 200

# Short fuzz pass over every target — same budget as the CI smoke job.
# Matcher crashers land under internal/verify/testdata/fuzz/
# (replay with `go run ./cmd/cecirun -verify -seed <seed>`); kernel
# crashers land under internal/setops/testdata/fuzz/; wire-parser
# crashers (query request, query response) under
# internal/service/testdata/fuzz/; set-deletion crashers under
# internal/ceci/testdata/fuzz/; shard-manifest crashers under
# internal/shard/testdata/fuzz/; traceparent crashers under
# internal/obs/testdata/fuzz/; .lg and edge-list loader crashers under
# internal/graph/testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzMatchDifferential -fuzztime=$(FUZZTIME) ./internal/verify
	$(GO) test -run='^$$' -fuzz=FuzzMapBuilderDelete -fuzztime=$(FUZZTIME) ./internal/ceci
	$(GO) test -run='^$$' -fuzz=FuzzIntersectKernels -fuzztime=$(FUZZTIME) ./internal/setops
	$(GO) test -run='^$$' -fuzz=FuzzIntersectionSize -fuzztime=$(FUZZTIME) ./internal/setops
	$(GO) test -run='^$$' -fuzz=FuzzQueryResponseDecode -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzQueryRequest -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzLoadPart -fuzztime=$(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz=FuzzRouterWindow -fuzztime=$(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz=FuzzLoadLabeled -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzLoadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzParseTraceparent -fuzztime=$(FUZZTIME) ./internal/obs

# What .github/workflows/ci.yml runs: vet + build + full tests, then a
# race pass over the concurrency-heavy packages and 10 s of fuzzing of the
# bitmap probe, the .lg loader's label runs and the router's window.
ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/enum ./internal/ceci ./internal/order ./internal/graph ./internal/cluster ./internal/obs ./internal/stats ./internal/prof ./internal/setops ./internal/bitset ./internal/verify ./internal/service ./internal/telemetry ./internal/shard ./cmd/ceciserve ./cmd/ceciroute
	$(GO) test -run='^$$' -fuzz=FuzzIntersectKernels -fuzztime=10s ./internal/setops
	$(GO) test -run='^$$' -fuzz=FuzzLoadLabeled -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzRouterWindow -fuzztime=10s ./internal/shard

# Boot the query service on the Figure 1 fixture and exercise the HTTP
# API end to end (also run raced by CI's service-smoke job).
serve-smoke:
	$(GO) test -race -run TestServeSmoke -v ./cmd/ceciserve
	$(GO) test -race ./internal/service

# Trace a query end to end: traceparent ingress, flight recorder,
# Chrome export, audit flush, and a traceparent crossing real sockets
# from the router to every shard and back into one span tree (also run
# raced by CI's service-smoke and shard-smoke jobs).
trace-smoke:
	$(GO) test -race -run 'TestServeTraceAuditFlush|TestTraced|TestRouterTraceStitching' -v ./cmd/ceciserve ./internal/service ./internal/shard

# Sharded-serving smoke: the partition/router/fault-injection suites
# raced (differential oracle vs single-node, explicit-partial fault
# semantics, trace stitching), then the out-of-process pass — partition
# the Figure 1 fixture into 3 shards, boot the fleet plus the router,
# curl a traced query, validate the merged count and the stitched
# trace, SIGTERM everything (also run by CI's shard-smoke job).
shard-smoke:
	$(GO) test -race ./internal/shard
	$(GO) test -race -run 'TestServeShard|TestReadinessGate|TestRouteMode|TestPartitionMode|TestShardMode|TestClientRetr|TestClientBackoff' -v ./cmd/ceciserve ./cmd/ceciroute ./internal/service
	bash scripts/shard_smoke.sh

# Telemetry smoke: the hub's deterministic unit tests raced (rollups, SLO
# burn, totals that count every query, zero-alloc ledger and
# ObserveQuery), then the /statz + Server-Timing surfaces through the
# in-process server (also run, plus a curl-driven binary pass that checks
# the ledger totals, by CI's telemetry-smoke job).
telemetry-smoke:
	$(GO) test -race ./internal/telemetry
	$(GO) test -race -run 'TestServeStatzSmoke|TestTelemetryEndToEnd|TestQueryzFilters|TestServerTimingHeader|TestRunLedger' -v ./cmd/ceciserve ./internal/service ./cmd/cecirun

# Regenerate every table and figure of the paper (minutes).
experiments:
	$(GO) run ./cmd/cecibench -exp all

experiments-quick:
	$(GO) run ./cmd/cecibench -exp all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/protein
	$(GO) run ./examples/workloadlab
	$(GO) run ./examples/fraud
	$(GO) run ./examples/distributed

clean:
	$(GO) clean ./...
