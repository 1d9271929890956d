# COSM build/verification entry points. `make check` is the gate every
# change must pass: build, vet, full tests, and the race detector over
# the whole tree (the resilience layer is concurrency-heavy).

GO ?= go

.PHONY: check build vet test race bench chaos

check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# What cosmbench (bench/, see BENCHMARK.json) does not measure: the
# paper-figure groups, the ablations, and the overload, failover,
# event-log, gossip-round and read-replica benchmarks. The market's hot
# paths are cosmbench workloads: `bash bench/run.sh`.
bench:
	$(GO) test -bench=. -benchmem .

chaos:
	$(GO) run ./cmd/marketsim -chaos
