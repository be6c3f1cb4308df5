#!/bin/sh
# bench.sh [sim|all] [snapshot.json] — run the benchmark suite and
# snapshot the results.
#
# Writes:
#   bench.txt      raw `go test -bench` output, benchstat-comparable
#                  (benchstat old.txt bench.txt)
#   snapshot.json  parsed {name, ns_op, b_op, allocs_op} records; the
#                  second argument names the file (default
#                  BENCH_pr17.json, the current perf-trajectory snapshot —
#                  earlier PRs' snapshots stay committed as
#                  BENCH_pr<N>.json; bump the default each PR so `make
#                  bench` never clobbers a previous PR's snapshot)
set -e
cd "$(dirname "$0")/.."

MODE="${1:-all}"
OUT=bench.txt
SNAP="${2:-BENCH_pr17.json}"

# Every benchmark runs a fixed iteration count (-benchtime Nx), not a
# time budget. A benchmark whose allocations are not spread evenly over
# its iterations (pool growth, histogram buckets) reports an allocs/op
# that depends on how many iterations fit the budget, and so on host
# speed; at a fixed count allocs/op is a function of the code alone,
# which is what lets benchgate.sh compare it exactly. The engine
# micro-benchmarks run in ns, the artifact and fleet benchmarks in
# ms, hence two counts.
#
# The suite also runs on one P (-cpu 1). With several Ps the runtime
# allocates a fresh goroutine whenever the creating P's free list is
# empty, which depends on where earlier goroutines exited, so
# allocs/op wobbles by one from run to run even on serial benchmarks.
# On one P the *Parallel benchmarks price the worker pool's overhead,
# not its speedup; measure that with `go test -bench Parallel -cpu N`.
SIM_N=10000000x
ROOT_N=100x

case "$MODE" in
sim | all) ;;
*)
	echo "usage: $0 [sim|all] [snapshot.json]" >&2
	exit 2
	;;
esac

{
	go test -run=XXX -bench=. -benchmem -cpu=1 -benchtime=$SIM_N ./internal/sim/
	if [ "$MODE" = all ]; then
		go test -run=XXX -bench=. -benchmem -cpu=1 -benchtime=$ROOT_N .
	fi
} | tee "$OUT"

# Parse "BenchmarkName  N  ns/op  B/op  allocs/op [metrics...]" lines
# into a JSON array.
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	ns = ""; bop = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns = $(i-1)
		if ($i == "B/op")      bop = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (!first) printf ",\n"
	first = 0
	printf "  {\"name\": \"%s\", \"ns_op\": %s", name, ns
	if (bop != "")    printf ", \"b_op\": %s", bop
	if (allocs != "") printf ", \"allocs_op\": %s", allocs
	printf "}"
}
END { print "\n]" }
' "$OUT" > "$SNAP"

echo "wrote $OUT and $SNAP"
