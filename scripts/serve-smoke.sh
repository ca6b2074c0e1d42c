#!/usr/bin/env bash
# serve-smoke: end-to-end check that the ranking daemon answers HTTP
# queries and that its rankings are byte-identical to the CLI's.
#
#   1. build dtrank and dtrankd
#   2. start dtrankd on a synthetic dataset
#   3. curl /healthz and /v1/rank
#   4. compare the /v1/rank body against `dtrank rank -json` with cmp(1)
#
# Mirrored by `make serve-smoke` and the CI serve-smoke job.
set -euo pipefail

SEED=3
FAMILY="AMD Phenom"
APP=gcc
METHOD="NN^T"
TOP=5

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

echo "serve-smoke: building binaries"
go build -o "$dir/dtrank" ./cmd/dtrank
go build -o "$dir/dtrankd" ./cmd/dtrankd

port=$(( 20000 + RANDOM % 20000 ))
base="http://127.0.0.1:$port"
echo "serve-smoke: starting dtrankd on $base"
"$dir/dtrankd" -addr "127.0.0.1:$port" -seed "$SEED" >"$dir/dtrankd.log" 2>&1 &
pid=$!

for i in $(seq 1 50); do
    if curl -fsS "$base/healthz" >"$dir/healthz.json" 2>/dev/null; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: dtrankd died:" >&2
        cat "$dir/dtrankd.log" >&2
        exit 1
    fi
    sleep 0.2
done
grep -q '"status":"ok"' "$dir/healthz.json" || {
    echo "serve-smoke: bad healthz: $(cat "$dir/healthz.json")" >&2
    exit 1
}
echo "serve-smoke: healthz ok"

"$dir/dtrank" rank -seed "$SEED" -family "$FAMILY" -app "$APP" \
    -method "$METHOD" -top "$TOP" -json >"$dir/cli.json"

curl -fsS -X POST "$base/v1/rank" -H 'Content-Type: application/json' \
    -d "{\"family\":\"$FAMILY\",\"app\":\"$APP\",\"method\":\"$METHOD\",\"top\":$TOP}" \
    >"$dir/server.json"

if ! cmp -s "$dir/cli.json" "$dir/server.json"; then
    echo "serve-smoke: server ranking differs from CLI ranking" >&2
    echo "--- cli.json"    >&2; cat "$dir/cli.json"    >&2
    echo "--- server.json" >&2; cat "$dir/server.json" >&2
    exit 1
fi
echo "serve-smoke: /v1/rank byte-identical to 'dtrank rank -json'"

# Warm path: the same query again must hit the registry, not refit.
curl -fsS -X POST "$base/v1/rank" -H 'Content-Type: application/json' \
    -d "{\"family\":\"$FAMILY\",\"app\":\"$APP\",\"method\":\"$METHOD\",\"top\":$TOP}" \
    >"$dir/server2.json"
cmp -s "$dir/server.json" "$dir/server2.json" || {
    echo "serve-smoke: warm query diverged" >&2
    exit 1
}
curl -fsS "$base/metrics" >"$dir/metrics.txt"
grep -qx 'dtrank_registry_fits_total 1' "$dir/metrics.txt" || {
    echo "serve-smoke: expected exactly 1 fit, got: $(grep '^dtrank_registry_fits_total' "$dir/metrics.txt")" >&2
    exit 1
}
echo "serve-smoke: warm query served from registry (1 fit, 2 queries)"

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "serve-smoke: OK"
