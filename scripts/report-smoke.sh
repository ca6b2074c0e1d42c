#!/usr/bin/env bash
# report-smoke: end-to-end check of materialised report serving.
#
#   1. build dtrank and dtrankd
#   2. start dtrankd over an empty shared result store (-cache)
#   3. cold render: GET /v1/reports/table2 computes its missing units
#   4. CLI parity: `dtrank run -spec table2 -cache` over the SAME store
#      must be byte-identical to the served body and recompute nothing —
#      daemon-computed units are plain CLI store units
#   5. warm the store fully (`dtrank run -spec all -cache`), then GET every
#      remaining spec: each render must be byte-identical to the CLI and
#      the daemon's dtrank_report_units_computed_total counter must not
#      move — a cold
#      request against a warm store recomputes nothing
#   6. re-GET table2: served from the report render cache (hit counter)
#   7. GET with If-None-Match: bodyless 304, not_modified counter
#
# Mirrored by `make report-smoke` and the CI report-smoke job.
set -euo pipefail

SEED=3
FLAGS=(-fast -draws 2 -maxk 3)
FIRST_SPEC=table2

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

echo "report-smoke: building binaries" >&2
go build -o "$dir/dtrank" ./cmd/dtrank
go build -o "$dir/dtrankd" ./cmd/dtrankd

store="$dir/store"
mkdir -p "$store"
port=$(( 20000 + RANDOM % 20000 ))
base="http://127.0.0.1:$port"
echo "report-smoke: starting dtrankd on $base (shared store $store)" >&2
"$dir/dtrankd" -addr "127.0.0.1:$port" -seed "$SEED" -cache "$store" "${FLAGS[@]}" \
    >"$dir/dtrankd.log" 2>&1 &
pid=$!

for i in $(seq 1 50); do
    if curl -fsS "$base/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "report-smoke: dtrankd died:" >&2
        cat "$dir/dtrankd.log" >&2
        exit 1
    fi
    sleep 0.2
done
echo "report-smoke: daemon up" >&2

# metric NAME prints the value of an unlabelled /metrics series.
metric() {
    curl -fsS "$base/metrics" | sed -n "s/^$1 \([0-9]*\)$/\1/p"
}

# --- cold render: the daemon computes the spec's missing units -----------
curl -fsS -D "$dir/headers1.txt" "$base/v1/reports/$FIRST_SPEC" >"$dir/served1.txt"
computed=$(metric dtrank_report_units_computed_total)
if [ "${computed:-0}" -le 0 ]; then
    echo "report-smoke: cold render computed $computed units, want > 0" >&2
    exit 1
fi
echo "report-smoke: cold render computed $computed units" >&2

# --- CLI parity over the SAME store --------------------------------------
# The CLI render must be byte-identical AND recompute nothing: every unit
# the daemon computed is a regular `dtrank run -cache` store unit.
"$dir/dtrank" run -spec "$FIRST_SPEC" -seed "$SEED" -cache "$store" "${FLAGS[@]}" \
    >"$dir/cli1.txt" 2>"$dir/cli1.err"
if ! cmp -s "$dir/served1.txt" "$dir/cli1.txt"; then
    echo "report-smoke: served $FIRST_SPEC differs from CLI render:" >&2
    diff "$dir/cli1.txt" "$dir/served1.txt" >&2 || true
    exit 1
fi
cli_computed=$(sed -n 's/.*result store.*: [0-9]* hits, [0-9]* misses, \([0-9]*\) computed.*/\1/p' "$dir/cli1.err")
if [ "${cli_computed:-1}" -ne 0 ]; then
    echo "report-smoke: CLI recomputed $cli_computed units against the daemon-warmed store, want 0" >&2
    cat "$dir/cli1.err" >&2
    exit 1
fi
echo "report-smoke: CLI parity for $FIRST_SPEC (0 recomputes)" >&2

# --- warm the store fully, then render everything else -------------------
"$dir/dtrank" run -spec all -seed "$SEED" -cache "$store" "${FLAGS[@]}" \
    >"$dir/all.txt" 2>/dev/null
computed_before=$(metric dtrank_report_units_computed_total)
specs=$(curl -fsS "$base/v1/reports" | tr ',' '\n' | sed -n 's/.*"spec":"\([^"]*\)".*/\1/p')
for spec in $specs; do
    [ "$spec" = "$FIRST_SPEC" ] && continue
    curl -fsS "$base/v1/reports/$spec" >"$dir/served-$spec.txt"
    "$dir/dtrank" run -spec "$spec" -seed "$SEED" -cache "$store" "${FLAGS[@]}" \
        >"$dir/cli-$spec.txt" 2>/dev/null
    if ! cmp -s "$dir/served-$spec.txt" "$dir/cli-$spec.txt"; then
        echo "report-smoke: served $spec differs from CLI render:" >&2
        diff "$dir/cli-$spec.txt" "$dir/served-$spec.txt" >&2 || true
        exit 1
    fi
done
computed_after=$(metric dtrank_report_units_computed_total)
if [ "$computed_after" -ne "$computed_before" ]; then
    echo "report-smoke: cold requests against a warm store recomputed $(( computed_after - computed_before )) units, want 0" >&2
    exit 1
fi
n=$(echo "$specs" | wc -w)
echo "report-smoke: $(( n - 1 )) more specs byte-identical, 0 units recomputed" >&2

# --- render cache hit ----------------------------------------------------
hits_before=$(metric dtrank_reportcache_hits_total)
curl -fsS "$base/v1/reports/$FIRST_SPEC" >"$dir/served2.txt"
hits_after=$(metric dtrank_reportcache_hits_total)
if [ "$hits_after" -le "$hits_before" ]; then
    echo "report-smoke: warm re-render was not a cache hit ($hits_before -> $hits_after)" >&2
    exit 1
fi
cmp -s "$dir/served1.txt" "$dir/served2.txt" || {
    echo "report-smoke: cache served different bytes" >&2
    exit 1
}
echo "report-smoke: warm render served from cache" >&2

# --- ETag revalidation ---------------------------------------------------
etag=$(sed -n 's/^[Ee][Tt]ag: \(.*\)\r\{0,1\}$/\1/p' "$dir/headers1.txt" | tr -d '\r')
if [ -z "$etag" ]; then
    echo "report-smoke: no ETag on the report response" >&2
    cat "$dir/headers1.txt" >&2
    exit 1
fi
nm_before=$(metric dtrank_reportcache_not_modified_total)
code=$(curl -fsS -o "$dir/body304.txt" -w '%{http_code}' \
    -H "If-None-Match: $etag" "$base/v1/reports/$FIRST_SPEC")
nm_after=$(metric dtrank_reportcache_not_modified_total)
if [ "$code" != "304" ] || [ -s "$dir/body304.txt" ]; then
    echo "report-smoke: If-None-Match got HTTP $code with $(wc -c <"$dir/body304.txt") bytes, want bodyless 304" >&2
    exit 1
fi
if [ "$nm_after" -le "$nm_before" ]; then
    echo "report-smoke: not_modified counter did not move ($nm_before -> $nm_after)" >&2
    exit 1
fi
echo "report-smoke: ETag revalidation answered 304" >&2

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "report-smoke: OK" >&2
