#!/usr/bin/env bash
# bench-gate: perf-regression gate on the fit path.
#
#   1. run the fit-path benchmarks once (-benchtime=1x -benchmem)
#   2. convert the output into a snapshot with benchstatjson
#   3. diff it against the latest committed BENCH_<date>.json
#
# Allocation regressions beyond MAX_REGRESS percent fail the gate;
# allocs/op is deterministic, so it gates reliably even on a single
# iteration. Time deltas only warn — single-shot ns/op on shared CI
# runners is too noisy to fail a build on. Benchmarks without a baseline
# counterpart (new benches, or packages not in the baseline run) are
# reported but never gate.
#
# Mirrored by `make bench-gate` and the CI bench-gate job.
set -euo pipefail

MAX_REGRESS=${MAX_REGRESS:-10}
# The baseline snapshot was recorded at GOMAXPROCS 1. Pooled scratch is
# allocated once per worker, so more cores add allocations that are not
# regressions; run at the baseline's setting so allocs/op compare.
export GOMAXPROCS=1
cd "$(dirname "$0")/.."

# The newest committed snapshot is the baseline (names sort by date).
baseline=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1)
if [ -z "$baseline" ]; then
    echo "bench-gate: no committed BENCH_*.json baseline found" >&2
    exit 1
fi

new=$(mktemp -t bench-gate.XXXXXX)
trap 'rm -f "$new"' EXIT

# Fit-path packages plus the report pipeline: the gate watches
# training/fitting allocations and the report render/cache/304 paths
# (their allocs/op are as deterministic as the fits'). The serve package
# is filtered to the report benchmarks on purpose — the HTTP rank-serving
# benches measure real sockets, whose single-shot alloc counts are not
# gate-stable. Serving throughput has its own gate (the loadtest smoke).
echo "bench-gate: running fit-path and report-path benchmarks at GOMAXPROCS=$GOMAXPROCS"
{ go test -bench=. -benchmem -benchtime=1x -run='^$' \
    . ./internal/la ./internal/mlp ./internal/spline ./internal/ga \
    ./internal/cluster ./internal/perfmodel ./internal/experiments ; \
  go test -bench='^BenchmarkServeReports$' -benchmem -benchtime=1x -run='^$' \
    ./internal/serve ; } \
    | go run ./cmd/benchstatjson -o "$new"

echo "bench-gate: comparing against $baseline (max allocs/op regression ${MAX_REGRESS}%)"
go run ./cmd/benchstatjson -diff -max-regress "$MAX_REGRESS" "$baseline" "$new"
