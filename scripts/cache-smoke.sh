#!/usr/bin/env bash
# cache-smoke: end-to-end check of the declarative spec pipeline and the
# content-addressed result store.
#
#   1. build dtrank
#   2. run `dtrank run -spec all -cache dir` cold (populates the store)
#   3. run it again warm
#   4. assert the warm stdout is byte-identical to the cold one, the warm
#      run read each stored unit exactly once (hits == the number of .dtr
#      entries in the store), and it recomputed nothing
#
# Mirrored by `make cache-smoke` and the CI cache-smoke job.
set -euo pipefail

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "cache-smoke: building dtrank"
go build -o "$dir/dtrank" ./cmd/dtrank

FLAGS=(-spec all -cache "$dir/cache" -fast -draws 2 -maxk 3)

echo "cache-smoke: cold run"
"$dir/dtrank" run "${FLAGS[@]}" >"$dir/cold.txt" 2>"$dir/cold.err"
grep -q 'result store' "$dir/cold.err" || {
    echo "cache-smoke: cold run printed no store summary" >&2
    cat "$dir/cold.err" >&2
    exit 1
}

echo "cache-smoke: warm run"
"$dir/dtrank" run "${FLAGS[@]}" >"$dir/warm.txt" 2>"$dir/warm.err"

if ! cmp -s "$dir/cold.txt" "$dir/warm.txt"; then
    echo "cache-smoke: warm output differs from cold output" >&2
    diff "$dir/cold.txt" "$dir/warm.txt" >&2 || true
    exit 1
fi
echo "cache-smoke: warm stdout byte-identical to cold"

# The warm summary must report one hit per stored unit and no recomputed
# units, e.g.:
#   dtrank run: result store /tmp/x/cache: 92 hits, 0 misses, 0 computed, 0 corrupt
summary=$(grep 'result store' "$dir/warm.err")
echo "cache-smoke: $summary"
# BRE only ([0-9][0-9]* rather than \+), so BSD sed on macOS works too.
hits=$(echo "$summary" | sed -n 's/.*: \([0-9][0-9]*\) hits.*/\1/p')
computed=$(echo "$summary" | sed -n 's/.*, \([0-9][0-9]*\) computed.*/\1/p')
entries=$(find "$dir/cache" -name '*.dtr' | wc -l | tr -d ' ')
if [ "$entries" -lt 1 ]; then
    echo "cache-smoke: cold run stored no entries" >&2
    exit 1
fi
if [ -z "$hits" ] || [ "$hits" -ne "$entries" ]; then
    echo "cache-smoke: warm run reported ${hits:-no} hits for $entries stored units, want one read per unit" >&2
    exit 1
fi
if [ -z "$computed" ] || [ "$computed" -ne 0 ]; then
    echo "cache-smoke: warm run recomputed $computed units" >&2
    exit 1
fi
echo "cache-smoke: OK ($hits hits for $entries stored units, 0 recomputed)"
