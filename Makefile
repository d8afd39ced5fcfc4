# Development targets for the lrgp repository. Everything is stdlib-only;
# the only prerequisite is a Go toolchain (>= 1.22).

GO ?= go

.PHONY: all build vet lint test race cover loc bench bench-core bench-broker bench-dist bench-overlay bench-scaling bench-e2e-smoke fuzz experiments examples telemetry-smoke trace-analyze clean

all: build vet lint test

# golangci-lint is configured in .golangci.yml; the target degrades to a
# loud skip when the binary is not installed so `make all` stays usable on
# minimal toolchains (CI runs the real thing).
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "lint: golangci-lint not installed; skipping (see .golangci.yml)"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# The size measure ROADMAP tracks: non-test Go lines outside bench/, per
# package (directory) and in total.
loc:
	@find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print \
		| sort | xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; all += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", all }' | sort -k2

# One benchmark per paper table/figure (plus micro-benchmarks).
bench:
	$(GO) test -bench=. -benchmem ./...

# Engine-core benchmarks recorded as JSON (ns/op, allocs/op per benchmark)
# so the perf trajectory is tracked PR over PR. BenchmarkEngineStepSparse
# (one Step on the link_failure shape) is left out of the -bench=. pass and
# recorded at -cpu=1,4 over a fixed 12000-Step window: it continues one
# trajectory across b.N rounds, so its ns/op depends on the b.N the harness
# lands on. Parent commits' numbers go to CHANGES.md, not into this file.
bench-core:
	{ $(GO) test -run='^$$' -bench=. -skip=EngineStepSparse -benchmem ./internal/core/ ; \
	  $(GO) test -run='^$$' -bench=EngineStepSparse -benchtime=12000x -benchmem -cpu=1,4 ./internal/core/ ; } \
		| $(GO) run ./cmd/lrgp-benchjson -out BENCH_core.json

# Broker data-plane benchmarks recorded as JSON. -cpu=1,4 captures the
# contended scaling of the lock-free publish path.
bench-broker:
	$(GO) test -run='^$$' -bench='Publish|ApplyAllocation|DetachAdmitted|AttachConsumer' -benchmem -cpu=1,4 ./internal/broker/ \
		| $(GO) run ./cmd/lrgp-benchjson -out BENCH_broker.json

# Distributed-runtime benchmarks recorded as JSON: codec encode ns/op
# (transport), bytes/round on the base workload, frames/round at one host
# per node and at 12 hosts in memory and — SyncRoundTCPScaled, the shape the
# end-to-end dist_rounds workload measures — over loopback TCP, and
# rounds-to-converge per staleness bound K. Parent commits' numbers go to
# CHANGES.md, not into this file.
bench-dist:
	$(GO) test -run='^$$' -bench='DistWire|DistBatch|DistStaleness|SyncRound|Message' -benchmem \
		./internal/dist/ ./internal/transport/ \
		| $(GO) run ./cmd/lrgp-benchjson -out BENCH_dist.json

# Overlay re-optimization benchmarks recorded as JSON: tree repair
# (kill + heal cycle, allocation-bounded), the full warm path per
# failure event (repair + ResetRouting + re-solve) and the cold-rebuild
# baseline it is judged against, all on the 10k-node pod topology; and
# ResetRoutingSparse, a fail + heal pair on the link_failure shape, which
# reports the time inside RepairLink, RestoreLink and the two ResetRouting
# calls as repair-µs/op, restore-µs/op and reset-µs/op — routing is the
# routing half alone, steps adds the 10 Steps after each ResetRouting as
# step-µs/op. NewRouterSparse is NewRouter on the link_failure shape.
# Parent commits' numbers go to CHANGES.md, not into this file.
# -cpu=1,4: the shard budget is two shards per GOMAXPROCS, one at 1, so one
# shard and a real pool.
bench-overlay:
	$(GO) test -run='^$$' -bench='TreeRepair|WarmResolve|ColdResolve|ResetRoutingSparse|NewRouterSparse' -benchmem -cpu=1,4 ./internal/overlay/ \
		| $(GO) run ./cmd/lrgp-benchjson -out BENCH_overlay.json

# The end-to-end benchmark's own checks (bench/ is a module of its own, so
# ./... above never reaches it) and one short link_failure run, whose
# built-in output check — after the last heal every tree equals the tree
# first routed, element for element — is the end-to-end oracle for the
# overlay repair and restore paths.
bench-e2e-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	bash bench/run.sh --workload link_failure --seed 1 --seconds 2 --trace 0

# Scaling-regression gate: workers=8 must beat workers=1 by >= 1.5x on
# the metro-small benchmark (skips loudly on hosts with < 4 CPUs).
bench-scaling:
	bash scripts/bench-scaling.sh

# Short fuzzing pass over every fuzz target: the rate solver, utility
# specs, the transport frame decoder, the dist payload decoders and the
# index's incremental routing refresh.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzBisectDecreasing -fuzztime=10s ./internal/solver/
	$(GO) test -run='^$$' -fuzz=FuzzSpecJSON -fuzztime=10s ./internal/utility/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMessage -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDistPayloads -fuzztime=10s ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzRefreshRouting -fuzztime=10s ./internal/model/

# End-to-end scrape of lrgp-broker's -telemetry-addr surface (Prometheus
# counters, pprof, expvar, snapshot). RACE=1 builds the binary with the
# race detector, as CI does.
telemetry-smoke:
	bash scripts/telemetry-smoke.sh

# Flight-recorder round trip: a dist lrgp-broker run with -dist-events,
# analyzed by lrgp-trace (round timeline, stragglers, loss hotspots,
# effective staleness).
trace-analyze:
	bash scripts/trace-smoke.sh

# Regenerate every table and figure (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/lrgp-experiments -run all -sa-steps 2000000 -chart=false

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tradedata
	$(GO) run ./examples/latestprice
	$(GO) run ./examples/multiratefeed
	$(GO) run ./examples/autoscale
	$(GO) run ./examples/overlaycity

clean:
	rm -f cover.out test_output.txt bench_output.txt
