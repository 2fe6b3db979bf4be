# LambdaStore build and test entry points.
#
#   make build   compile everything (library + commands)
#   make test    full test suite
#   make race    race-detector pass over the concurrency-heavy packages
#   make chaos   seeded failover chaos suite under the race detector
#   make bench   telemetry hot-path benchmarks (must report 0 allocs/op)
#   make bench-recovery  rejoin cost vs store size and divergence (JSON artifact)
#   make bench-rebalance many-group placement + Zipf hot-spot convergence (JSON artifact)
#   make bench-overload  open-loop latency vs offered load, shed on/off (JSON artifact)
#   make perfbench  build + vet the perfbench module (its own go.mod, so the
#                   root `go build ./...` skips it)
#   make vet     gofmt + go vet hygiene
#   make check   everything the CI gate runs
#
# results/BENCH_{write_path,read_path,observability,read_scaleout,vm_compile}.json
# are archived artifacts with no target here; EXPERIMENTS.md names the
# revision that regenerates each.

GO ?= go

.PHONY: all build test race chaos bench bench-recovery bench-rebalance bench-overload perfbench vet check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages where a data race would actually hide: the runtime, the
# cluster node, the caches on the read path, the store, the telemetry
# instruments themselves, and the VM (lazy module compilation is shared
# across instances; the differential test runs both tiers under -race).
race:
	$(GO) test -race ./internal/core/ ./internal/cluster/ ./internal/cache/ ./internal/store/ ./internal/telemetry/ ./internal/rebalance/ ./internal/replication/ ./internal/vm/ ./internal/admission/

# Deterministic failover chaos: every seed replays the same kill/partition/
# fsync-failure schedule (see EXPERIMENTS.md "Chaos runs"). The smoke
# variant already rides in `make test`; this is the full multi-seed pass.
chaos:
	$(GO) test -run TestChaos -race -count=1 ./internal/chaos/

bench:
	$(GO) test -run Telemetry -bench . -benchmem ./internal/telemetry/

# Rejoin cost: a crashed backup catches up via range-digest diff, across
# store sizes and downtime divergence. The artifact shows streamed bytes
# track divergence, not store size.
bench-recovery:
	$(GO) run ./cmd/lambda-bench -recovery -out results/BENCH_recovery.json

# Rebalance: uniform Post throughput at 1/4/16/48 single-node groups
# (per-node admission modeled with an injected per-frame receive delay),
# then the Zipf(1.1) correlated hot spot at 16 groups with the rebalancer
# off vs on. The acceptance bar is >=1.5x from rebalancing and a move
# count that plateaus instead of oscillating.
bench-rebalance:
	$(GO) run ./cmd/lambda-bench -rebalance -accounts 512 -concurrency 64 -ops 3000 -out results/BENCH_rebalance.json

# Overload: seeded open-loop Poisson arrivals swept from half the measured
# closed-loop capacity to 1.8x past it (latency measured CO-safe from each
# intended arrival slot), against the same deployment with the admission
# plane off (unbounded queueing) vs on (bounded queue + deadline shed).
# The acceptance bar is a shed-config admitted-request p99 that stays a
# small multiple of its pre-knee value while the no-shed p99 collapses.
bench-overload:
	$(GO) run ./cmd/lambda-bench -overload -out results/BENCH_overload.json

# perfbench is a nested module (it pins the parent via a replace
# directive), so the root build and vet never see it. Building it here
# catches API changes in bench/cluster/store/vm that would break the
# benchmark while the root module stays green.
perfbench:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

vet:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

check: vet build perfbench test race

clean:
	$(GO) clean ./...
