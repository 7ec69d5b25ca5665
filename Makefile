# Standard developer entry points. `make check` is the full gate that
# scripts/check.sh (and CI) runs.

GO ?= go

.PHONY: build test lint perflint conclint race chaos overload check bench perfbench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/cachelint -baseline .cachelint-baseline.jsonl ./...

# The performance tier alone: hot-path findings over the //perf:hot
# reachability set, without the correctness tiers' runtime.
perflint:
	$(GO) run ./cmd/cachelint -tier=perf ./...

# The concurrency-isolation tier alone: the epoch-ownership contract
# (epochshare, atomicmix, chanproto, wgbalance, goroutinecapture)
# rooted at goroutine spawn sites.
conclint:
	$(GO) run ./cmd/cachelint -tier=conc ./...

race:
	$(GO) test -race ./internal/engine/... ./internal/cachesim/... ./internal/exec/...
	$(GO) test -race -run 'Parallel' ./internal/harness/...

bench:
	sh scripts/bench.sh

# The repository benchmark's own tests (a separate module, outside
# ./...): traced compositions equal their figures byte for byte, and
# scan-agg's seed-1 output matches _perfbench/digests.json. About a
# minute on a 2-core host.
perfbench:
	cd _perfbench && $(GO) test ./...

chaos:
	sh scripts/check.sh chaos

overload:
	sh scripts/check.sh overload

check:
	sh scripts/check.sh
