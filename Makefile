GO ?= go

.PHONY: check fmt-check build vet test test-procs race bench bench-json bench-module fuzz serve-smoke

# check is the CI gate: formatting, vet, build everything, run the full suite
# with the race detector and at several GOMAXPROCS, check the benchmark module
# still builds, then smoke the online serving layer end-to-end.
check: fmt-check vet build race test-procs bench-module serve-smoke

fmt-check:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# test-procs runs tier-1 at 1 core, 2 cores and the host's: results and
# committed counters must not depend on the core count.
test-procs:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	$(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

# bench-module checks that bench/ (its own module, importing
# adrdedup/internal/...) still builds and passes against the root module.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-json snapshots the engine micro-benchmarks (fused vs unfused narrow
# chains, streaming Cartesian, pre-sized Join, plus the RealParallel
# work-stealing scaling sweep from 1 worker to NumCPU appended into the
# same engine snapshot), the pairwise-distance kernel (legacy string-set vs
# interned merge-scan vs cache-tiled sweep), the speculative execution
# straggler exhibit (off/on makespan ratio), the candidate generation wall
# (prefix-filtered funnel vs extrapolated brute force on a 100k-report
# corpus), the executor-loss recovery exhibit (faulty/clean makespan ratio
# under deterministic kills), and the memory-pressure spill exhibit
# (budgeted/unbounded makespan ratio with byte-identical output) as
# test2json lines, seeding the perf trajectory across PRs.
bench-json:
	$(GO) test -run='^$$' -bench='NarrowChain|CartesianFilter|JoinPartition' -benchmem -json ./internal/rdd > BENCH_engine.json
	$(GO) test -run='^$$' -bench='RealParallelScaling' -benchmem -json ./internal/pairdist >> BENCH_engine.json
	$(GO) test -run='^$$' -bench='PairKernel|Extract' -benchmem -json ./internal/pairdist > BENCH_pairdist.json
	$(GO) test -run='^$$' -bench='SpeculationSkew' -benchtime=3x -json ./internal/experiments > BENCH_speculation.json
	$(GO) test -run='^$$' -bench='CandidateGen' -benchtime=1x -timeout=60m -json ./internal/experiments > BENCH_candidates.json
	$(GO) test -run='^$$' -bench='RecoveryOverhead' -benchtime=1x -json ./internal/experiments > BENCH_recovery.json
	$(GO) test -run='^$$' -bench='SpillOverhead' -benchtime=1x -json ./internal/experiments > BENCH_spill.json
	$(GO) test -run='^$$' -bench='ServeSustained' -benchtime=1x -timeout=30m -json ./internal/experiments > BENCH_serve.json

# fuzz runs each native fuzz target briefly (CI smoke; extend -fuzztime for
# real hunting).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzStem -fuzztime=10s ./internal/text
	$(GO) test -run='^$$' -fuzz=FuzzHashKey -fuzztime=10s ./internal/rdd
	$(GO) test -run='^$$' -fuzz=FuzzIntern -fuzztime=10s ./internal/intern
	$(GO) test -run='^$$' -fuzz=FuzzPrefixPlan -fuzztime=10s ./internal/candgen
	$(GO) test -run='^$$' -fuzz=FuzzIndexAppend -fuzztime=10s ./internal/candgen
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRoundTrip -fuzztime=10s ./internal/rdd
	$(GO) test -run='^$$' -fuzz=FuzzSpillCodec -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzIngestRequest -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzTopK -fuzztime=10s ./internal/knn

# serve-smoke boots adrdedupd on a random port, drives 50k reports at it
# with adrload, and asserts zero errors, non-zero matches, and a clean
# SIGTERM drain.
serve-smoke:
	bash scripts/serve_smoke.sh
