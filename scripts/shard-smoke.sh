#!/usr/bin/env bash
# shard-smoke: end-to-end check of sharded spec execution over a shared
# result store, for both store backends.
#
#   1. build dtrank and dtrankd
#   2. reference: single-process `dtrank run -spec all` (in-memory store)
#   3. dir backend: run shards 0/2 and 1/2 into one cache directory
#      (concurrently — the merge point is the store, not the scheduler),
#      then render the merged store and assert stdout is byte-identical
#      to the reference with >= 1 hit and 0 recomputed units
#   4. HTTP backend: start `dtrankd -cache`, repeat the two shards and
#      the merge render against http://127.0.0.1:PORT, same assertions
#
# Mirrored by `make shard-smoke` and the CI shard-smoke job.
set -euo pipefail

dir=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

echo "shard-smoke: building binaries"
go build -o "$dir/dtrank" ./cmd/dtrank
go build -o "$dir/dtrankd" ./cmd/dtrankd

FLAGS=(-spec all -fast -draws 2 -maxk 3)

echo "shard-smoke: single-process reference run"
"$dir/dtrank" run "${FLAGS[@]}" >"$dir/single.txt" 2>/dev/null

# check_merge <label> <stderr-file>: the merge render must be all hits.
check_merge() {
    local label=$1 err=$2 summary hits computed
    summary=$(grep 'result store' "$err")
    echo "shard-smoke: $label: $summary"
    hits=$(echo "$summary" | sed -n 's/.*: \([0-9][0-9]*\) hits.*/\1/p')
    computed=$(echo "$summary" | sed -n 's/.*, \([0-9][0-9]*\) computed.*/\1/p')
    if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
        echo "shard-smoke: $label: merge render reported no hits" >&2
        exit 1
    fi
    if [ -z "$computed" ] || [ "$computed" -ne 0 ]; then
        echo "shard-smoke: $label: merge render recomputed $computed units" >&2
        exit 1
    fi
}

# run_shards <label> <cache-location>: two concurrent shard processes,
# then the merge render, compared bytewise against the reference.
run_shards() {
    local label=$1 cache=$2
    echo "shard-smoke: $label: executing shards 0/2 and 1/2"
    "$dir/dtrank" run "${FLAGS[@]}" -cache "$cache" -shard 0/2 \
        >"$dir/$label-s0.out" 2>"$dir/$label-s0.err" &
    local spid=$!
    "$dir/dtrank" run "${FLAGS[@]}" -cache "$cache" -shard 1/2 \
        >"$dir/$label-s1.out" 2>"$dir/$label-s1.err"
    wait "$spid"
    for s in s0 s1; do
        if [ -s "$dir/$label-$s.out" ]; then
            echo "shard-smoke: $label: shard $s rendered to stdout" >&2
            exit 1
        fi
        grep -q 'shard' "$dir/$label-$s.err" || {
            echo "shard-smoke: $label: shard $s printed no summary" >&2
            cat "$dir/$label-$s.err" >&2
            exit 1
        }
        echo "shard-smoke: $label: $(grep 'shard' "$dir/$label-$s.err")"
    done
    echo "shard-smoke: $label: merge render"
    "$dir/dtrank" run "${FLAGS[@]}" -cache "$cache" \
        >"$dir/$label-merged.txt" 2>"$dir/$label-merged.err"
    if ! cmp -s "$dir/single.txt" "$dir/$label-merged.txt"; then
        echo "shard-smoke: $label: merged output differs from single-process run" >&2
        diff "$dir/single.txt" "$dir/$label-merged.txt" >&2 || true
        exit 1
    fi
    echo "shard-smoke: $label: merged stdout byte-identical to single-process run"
    check_merge "$label" "$dir/$label-merged.err"
}

run_shards dir "$dir/cache-dir"

port=$(( 20000 + RANDOM % 20000 ))
base="http://127.0.0.1:$port"
echo "shard-smoke: starting dtrankd -cache on $base"
"$dir/dtrankd" -addr "127.0.0.1:$port" -cache "$dir/cache-http" \
    >"$dir/dtrankd.log" 2>&1 &
pid=$!
for i in $(seq 1 50); do
    if curl -fsS "$base/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "shard-smoke: dtrankd died:" >&2
        cat "$dir/dtrankd.log" >&2
        exit 1
    fi
    sleep 0.2
done

run_shards http "$base"

curl -fsS "$base/v1/status" >"$dir/status.json"
grep -q '"store"' "$dir/status.json" || {
    echo "shard-smoke: daemon reported no store counters" >&2
    exit 1
}

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "shard-smoke: OK"
