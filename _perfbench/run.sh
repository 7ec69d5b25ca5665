#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# flags. Run from the repository root:
#
#   bash _perfbench/run.sh --workload scan-agg --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, binary, trace files,
# run ledger) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go/cache GOMODCACHE=$out/go/mod GOPATH=$out/go/path
export XDG_CONFIG_HOME=$out/go/config XDG_CACHE_HOME=$out/go/xdgcache
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
# Stop-the-world collection with no concurrent sweep: the peak resident
# memory (max_rss_mb) then depends on the workload's allocations, not on
# when background GC work ran.
GODEBUG=gcstoptheworld=2 exec "$out/perfbench" --out "$out" "$@"
