#!/bin/sh
# bench.sh — measures the epoch-parallel simulation mode (DESIGN.md
# §11) against the serial reference, the batched access fast path
# against the per-call loop, the streaming miss/fill path under a full
# and a two-way CAT mask, one full open-loop serving sweep
# (DESIGN.md §13) and one SLO-aware overload point (DESIGN.md §15),
# then writes the results as BENCH_9.json
# (format documented in EXPERIMENTS.md). After writing, the fresh run
# is compared against the most recent committed BENCH_*.json and a
# per-benchmark delta table is printed — regressions warn, they do not
# fail, because ns/op across different hosts is not comparable.
#
# Usage: bench.sh [output.json]
#
# The figure-level pairs (Fig 9 scan∥aggregation, Fig 11 scan∥TPC-H)
# run the whole experiment per iteration; the simulator benches measure
# the raw per-access cost. Parallel-mode speedup needs host cores to
# spread over: the JSON records the host core count so a 1-core result
# is read as what it is.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_9.json}"
cores="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"

echo "== go test -bench (figure co-runs, serial vs parallel)" >&2
fig="$(go test -run '^$' -bench 'Fig9$|Fig9Parallel$|Fig11$|Fig11Parallel$' -benchtime 2x .)"
echo "$fig" >&2

echo "== go test -bench (simulator access, loop vs batch; streaming fills)" >&2
acc="$(go test -run '^$' -bench 'SimulatorAccess$|SimulatorAccessBatch$|SimulatorStream$' -benchtime 2000000x .)"
echo "$acc" >&2

echo "== go test -bench (open-loop serving sweep at 1.0x)" >&2
srv="$(go test -run '^$' -bench 'BenchmarkServe$' -benchtime 2x .)"
echo "$srv" >&2

echo "== go test -bench (overload control at 3x rogue polluter)" >&2
ovl="$(go test -run '^$' -bench 'BenchmarkOverload$' -benchtime 2x .)"
echo "$ovl" >&2

printf '%s\n%s\n%s\n%s\n' "$fig" "$acc" "$srv" "$ovl" | awk -v cores="$cores" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i <= NF; i++) {
		if ($i == "ns/op") {
			ns[name] = $(i - 1)
		}
	}
}
END {
	printf "{\n"
	printf "  \"bench\": \"overload — SLO-aware overload control plus the serving sweep and the epoch-parallel and batched-access fast paths\",\n"
	printf "  \"host_cores\": %d,\n", cores
	printf "  \"ns_per_op\": {\n"
	n = 0
	for (k in ns) order[n++] = k
	# Fixed emission order keeps the file diffable run to run.
	split("BenchmarkFig9 BenchmarkFig9Parallel BenchmarkFig11 BenchmarkFig11Parallel BenchmarkSimulatorAccess BenchmarkSimulatorAccessBatch BenchmarkSimulatorStream/full BenchmarkSimulatorStream/2way BenchmarkServe BenchmarkOverload", want, " ")
	first = 1
	for (i = 1; i <= 10; i++) {
		k = want[i]
		if (!(k in ns)) continue
		if (!first) printf ",\n"
		printf "    \"%s\": %s", k, ns[k]
		first = 0
	}
	printf "\n  },\n"
	printf "  \"speedup\": {\n"
	printf "    \"fig9_parallel_over_serial\": %.3f,\n", ns["BenchmarkFig9"] / ns["BenchmarkFig9Parallel"]
	printf "    \"fig11_parallel_over_serial\": %.3f,\n", ns["BenchmarkFig11"] / ns["BenchmarkFig11Parallel"]
	printf "    \"access_batch_over_loop\": %.3f\n", ns["BenchmarkSimulatorAccess"] / ns["BenchmarkSimulatorAccessBatch"]
	printf "  },\n"
	if (cores < 4) {
		printf "  \"note\": \"host has %d core(s); the parallel mode needs >=4 host cores to show its speedup — rerun there for the headline number\"\n", cores
	} else {
		printf "  \"note\": \"parallel-mode results are bit-identical to Workers=1 (see TestParallelWorkerEquivalenceFig9)\"\n"
	}
	printf "}\n"
}' >"$out"

echo "bench.sh: wrote $out" >&2
cat "$out"

# Per-benchmark comparison against the most recent other BENCH_*.json
# (version-sorted), if one is committed.
prev=""
for f in $(ls BENCH_*.json 2>/dev/null | sort -V); do
	[ "$f" = "$out" ] && continue
	prev="$f"
done
if [ -n "$prev" ]; then
	echo "== delta vs $prev (ns/op; negative is faster, >5% slower warns)" >&2
	awk -v prevfile="$prev" -v curfile="$out" '
	function load(file, arr,    line, k, v) {
		while ((getline line < file) > 0) {
			if (line ~ /"Benchmark[A-Za-z0-9\/]+":/) {
				k = line
				sub(/^[ \t]*"/, "", k)
				sub(/".*$/, "", k)
				v = line
				sub(/^[^:]*:[ \t]*/, "", v)
				sub(/[,\r \t]*$/, "", v)
				arr[k] = v + 0
			}
		}
		close(file)
	}
	BEGIN {
		load(prevfile, old)
		load(curfile, cur)
		split("BenchmarkFig9 BenchmarkFig9Parallel BenchmarkFig11 BenchmarkFig11Parallel BenchmarkSimulatorAccess BenchmarkSimulatorAccessBatch BenchmarkSimulatorStream/full BenchmarkSimulatorStream/2way BenchmarkServe BenchmarkOverload", want, " ")
		printf "%-30s %14s %14s %9s\n", "benchmark", "prev", "cur", "delta"
		for (i = 1; i <= 10; i++) {
			k = want[i]
			if (!(k in cur) || !(k in old) || old[k] == 0) continue
			d = (cur[k] - old[k]) / old[k] * 100
			flag = (d > 5) ? "  WARN: slower than " prevfile : ""
			printf "%-30s %14.0f %14.0f %+8.1f%%%s\n", k, old[k], cur[k], d, flag
		}
	}' >&2
fi
