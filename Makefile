GO ?= go

.PHONY: check fmt-check build vet test test-procs race bench bench-module fuzz serve-smoke

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

# fuzz runs each native fuzz target briefly (CI smoke; extend -fuzztime for
# real hunting).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzStem -fuzztime=10s ./internal/text
	$(GO) test -run='^$$' -fuzz=FuzzHashKey -fuzztime=10s ./internal/rdd
	$(GO) test -run='^$$' -fuzz=FuzzKeyedOpsMatchOracle -fuzztime=10s ./internal/rdd
	$(GO) test -run='^$$' -fuzz=FuzzIntern -fuzztime=10s ./internal/intern
	$(GO) test -run='^$$' -fuzz=FuzzDistanceMatchesReference -fuzztime=10s ./internal/pairdist
	$(GO) test -run='^$$' -fuzz=FuzzIndexAppend -fuzztime=10s ./internal/candgen
	$(GO) test -run='^$$' -fuzz=FuzzBitmapBound -fuzztime=10s ./internal/candgen
	$(GO) test -run='^$$' -fuzz=FuzzResumeVerify -fuzztime=10s ./internal/candgen
	$(GO) test -run='^$$' -fuzz=FuzzSpillCodec -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzIngestRequest -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMatchesReference -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzTokenizeMatchesReference -fuzztime=10s ./internal/text
	$(GO) test -run='^$$' -fuzz=FuzzTopK -fuzztime=10s ./internal/knn
	$(GO) test -run='^$$' -fuzz=FuzzGroupSearch -fuzztime=10s ./internal/knn

# serve-smoke boots adrdedupd on a random port, drives 50k reports at it
# with adrload, and asserts zero errors, non-zero matches, and a clean
# SIGTERM drain; first it boots once with the ignored -workers flag the
# frozen bench/ harness still passes.
serve-smoke:
	bash scripts/serve_smoke.sh
