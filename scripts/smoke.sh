#!/usr/bin/env bash
# smoke: the end-to-end check of dtrank and dtrankd. One build, one
# daemon and one result store carry every phase, in this order:
#
#   1. serve      /healthz answers; /v1/rank is byte-identical to
#                 `dtrank rank -json`; the same query again is served from
#                 the registry (exactly 1 fit). Must run first: later
#                 phases fit more models. `dtrank rank -json` for all five
#                 methods over three families is byte-identical with and
#                 without GODEBUG=cpu.fma=off.
#   2. report     a cold GET /v1/reports/<late-plan spec> computes its
#                 units into the store; `dtrank run -spec` over the same
#                 store is byte-identical and recomputes nothing.
#   3. worksteal  the daemon coordinates `-spec all`; worker A writes the
#                 store directory directly while worker B, under
#                 GODEBUG=cpu.fma=off, writes through the daemon's
#                 /v1/store/ (two processes, one store, one plan
#                 fingerprint whether math.Exp may fuse or not). A is
#                 SIGKILLed in its second lease; B drains the plan. The coordinator
#                 reports every unit done and >= 1 recovered, and a merge
#                 render over HTTP is byte-identical to a single-process
#                 run with 0 computed.
#   4. cache      a warm render from the store directory reads each stored
#                 unit once (hits == entries), computes 0 and prints the
#                 single-process bytes.
#   5. reports    every other spec is served byte-identical to the CLI and
#                 the daemon's computed-units counter does not move; a
#                 re-GET is a render-cache hit; If-None-Match gets a
#                 bodyless 304.
#   6. loadtest   a short traced `dtrank loadtest`, gated on p99 under a
#                 generous floor and on >= 1 response-cache hit.
#   7. metrics    /metrics parses with no duplicate series and a populated
#                 /v1/rank histogram; /v1/status reports a positive p99
#                 under the floor; the debug listener mirrors /metrics and
#                 serves pprof; a known trace ID reaches the JSON logs.
#
# stdout carries only the loadtest's benchmark-shaped lines (`make
# bench-json` pipes them into benchstatjson); all logging goes to stderr.
# Run with `make smoke`; CI runs the same target.
set -euo pipefail

SEED=3
FLAGS=(-seed "$SEED" -fast -draws 2 -maxk 3)
FIRST_SPEC=ablate-selection
FAMILY="AMD Phenom"
APP=gcc
METHOD="NN^T"
TOP=5
P99_MS=500

dir=$(mktemp -d)
store="$dir/store"
pid=""
wpids=()
cleanup() {
    for w in "${wpids[@]:-}"; do
        [ -n "$w" ] && kill "$w" 2>/dev/null || true
    done
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

log() { echo "smoke: $*" >&2; }
fail() {
    echo "smoke: $*" >&2
    exit 1
}

# start_daemon ARGS...: start dtrankd on a free-ish port pair and wait
# for /healthz; sets base (service) and dbase (debug listener).
start_daemon() {
    local port=$(( 20000 + RANDOM % 20000 ))
    base="http://127.0.0.1:$port"
    dbase="http://127.0.0.1:$(( port + 1 ))"
    "$dir/dtrankd" -addr "127.0.0.1:$port" -debug-addr "127.0.0.1:$(( port + 1 ))" "$@" \
        >"$dir/dtrankd.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$base/healthz" >"$dir/healthz.json" 2>/dev/null; then
            return
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            cat "$dir/dtrankd.log" >&2
            fail "dtrankd died"
        fi
        sleep 0.2
    done
    fail "dtrankd never answered /healthz"
}

# store_count FIELD FILE: the hits / misses / computed count from the
# `result store` summary line dtrank run prints on stderr, e.g.
#   dtrank run: result store /tmp/x: 92 hits, 0 misses, 0 computed, 0 corrupt
# BRE only ([0-9][0-9]* rather than \+), so BSD sed on macOS works too.
store_count() {
    sed -n "s/.*result store .*[:,] \([0-9][0-9]*\) $1.*/\1/p" "$2"
}

# metric NAME prints the value of an unlabelled /metrics series.
metric() {
    curl -fsS "$base/metrics" | sed -n "s/^$1 \([0-9]*\)$/\1/p"
}

# json_int FIELD: the integer field FIELD of the one-line JSON on stdin.
json_int() {
    sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}

log "building binaries"
go build -o "$dir/dtrank" ./cmd/dtrank
go build -o "$dir/dtrankd" ./cmd/dtrankd

log "single-process reference run"
"$dir/dtrank" run -spec all "${FLAGS[@]}" >"$dir/single.txt" 2>/dev/null

mkdir -p "$store"
start_daemon "${FLAGS[@]}" -cache "$store" -coordinate all -lease-ttl 2s -log-format json
log "dtrankd up on $base (debug $dbase, store $store)"
grep -q '"status":"ok"' "$dir/healthz.json" || fail "bad healthz: $(cat "$dir/healthz.json")"

# --- 1. serve ---------------------------------------------------------------
query="{\"family\":\"$FAMILY\",\"app\":\"$APP\",\"method\":\"$METHOD\",\"top\":$TOP}"
"$dir/dtrank" rank -seed "$SEED" -family "$FAMILY" -app "$APP" \
    -method "$METHOD" -top "$TOP" -json >"$dir/cli.json"
curl -fsS -X POST "$base/v1/rank" -H 'Content-Type: application/json' -d "$query" >"$dir/server.json"
if ! cmp -s "$dir/cli.json" "$dir/server.json"; then
    echo "--- cli.json" >&2; cat "$dir/cli.json" >&2
    echo "--- server.json" >&2; cat "$dir/server.json" >&2
    fail "serve: /v1/rank differs from 'dtrank rank -json'"
fi
curl -fsS -X POST "$base/v1/rank" -H 'Content-Type: application/json' -d "$query" >"$dir/server2.json"
cmp -s "$dir/server.json" "$dir/server2.json" || fail "serve: warm query diverged"
fits=$(metric dtrank_registry_fits_total)
[ "$fits" = 1 ] || fail "serve: expected exactly 1 fit, got '$fits'"
log "serve: /v1/rank byte-identical to the CLI, warm query served from the registry (1 fit)"

# GODEBUG=cpu.fma=off takes math.Exp off its FMA path on amd64; every
# result goes through lanes.Exp, so no body may change.
n=0
for method in "NN^T" "MLP^T" "SPL^T" "GA-kNN" "kNN^M"; do
    for family in "Intel Xeon" "AMD Phenom" "Intel Core 2"; do
        args=(rank -seed "$SEED" -family "$family" -app "$APP" -method "$method" -json)
        "$dir/dtrank" "${args[@]}" >"$dir/fma.json"
        GODEBUG=cpu.fma=off "$dir/dtrank" "${args[@]}" >"$dir/nofma.json"
        if ! cmp -s "$dir/fma.json" "$dir/nofma.json"; then
            diff "$dir/fma.json" "$dir/nofma.json" >&2 || true
            fail "serve: $method on $family differs under GODEBUG=cpu.fma=off"
        fi
        n=$(( n + 1 ))
    done
done
log "serve: $n rank -json bodies byte-identical with and without GODEBUG=cpu.fma=off"

# --- 2. report: cold render of a late-plan spec ----------------------------
curl -fsS -D "$dir/headers1.txt" "$base/v1/reports/$FIRST_SPEC" >"$dir/served1.txt"
computed=$(metric dtrank_report_units_computed_total)
[ "${computed:-0}" -gt 0 ] || fail "report: cold render computed '$computed' units, want > 0"
"$dir/dtrank" run -spec "$FIRST_SPEC" -cache "$store" "${FLAGS[@]}" >"$dir/cli1.txt" 2>"$dir/cli1.err"
if ! cmp -s "$dir/served1.txt" "$dir/cli1.txt"; then
    diff "$dir/cli1.txt" "$dir/served1.txt" >&2 || true
    fail "report: served $FIRST_SPEC differs from the CLI render"
fi
cli_computed=$(store_count computed "$dir/cli1.err")
[ "${cli_computed:-1}" -eq 0 ] || fail "report: CLI recomputed '$cli_computed' units against the daemon-warmed store, want 0"
log "report: cold $FIRST_SPEC computed $computed units; CLI parity with 0 recomputes"

# --- 3. worksteal ------------------------------------------------------------
total=$(curl -fsS "$base/v1/work/status" | json_int total)
[ -n "$total" ] && [ "$total" -ge 2 ] || fail "worksteal: implausible unit count '$total'"
log "worksteal: coordinator queues $total units; starting workers A (directory) and B (HTTP, cpu.fma=off)"
"$dir/dtrank" run -spec all "${FLAGS[@]}" -worker "$base" -worker-name worker-a -cache "$store" \
    >"$dir/worker-a.out" 2>"$dir/worker-a.err" &
wa=$!
wpids+=("$wa")
GODEBUG=cpu.fma=off "$dir/dtrank" run -spec all "${FLAGS[@]}" -worker "$base" -worker-name worker-b \
    >"$dir/worker-b.out" 2>"$dir/worker-b.err" &
wb=$!
wpids+=("$wb")

# Kill worker A once it holds its second lease: it completed the first,
# so its units reached the store directory while B wrote through HTTP.
# The plan's slowest units run tens of milliseconds, so a lease is
# essentially always in flight the moment the log line lands.
leases() { grep -c 'worker worker-a: leased' "$dir/worker-a.err" 2>/dev/null || true; }
for _ in $(seq 1 100); do
    [ "$(leases)" -ge 2 ] && break
    sleep 0.1
done
if [ "$(leases)" -lt 2 ]; then
    cat "$dir/worker-a.err" >&2
    fail "worksteal: worker A never leased a second batch"
fi
kill -9 "$wa" 2>/dev/null || true
wait "$wa" 2>/dev/null || true
if ! wait "$wb"; then
    cat "$dir/worker-b.err" >&2
    fail "worksteal: worker B failed"
fi
wpids=()
for w in a b; do
    if [ -s "$dir/worker-$w.out" ]; then
        fail "worksteal: worker $w rendered to stdout"
    fi
done
grep -q 'worker worker-b: .* units in' "$dir/worker-b.err" || {
    cat "$dir/worker-b.err" >&2
    fail "worksteal: worker B printed no summary"
}
log "worksteal: killed A mid-lease; $(grep 'worker worker-b: .* units in' "$dir/worker-b.err")"
b_units=$(sed -n 's/.*worker worker-b: \([0-9][0-9]*\) units in.*/\1/p' "$dir/worker-b.err")
[ "${b_units:-$total}" -lt "$total" ] || fail "worksteal: worker A completed no units into the store directory"

status=$(curl -fsS "$base/v1/work/status")
done_count=$(echo "$status" | json_int done)
recovered=$(echo "$status" | json_int units_recovered)
[ "$done_count" = "$total" ] || fail "worksteal: lost units: done=$done_count of total=$total"
[ -n "$recovered" ] && [ "$recovered" -ge 1 ] || fail "worksteal: killed worker's lease was never recovered"
curl -fsS "$base/v1/status" >"$dir/status.json"
grep -q '"store"' "$dir/status.json" || fail "worksteal: daemon reported no store counters"

"$dir/dtrank" run -spec all "${FLAGS[@]}" -cache "$base" >"$dir/merged.txt" 2>"$dir/merged.err"
if ! cmp -s "$dir/single.txt" "$dir/merged.txt"; then
    diff "$dir/single.txt" "$dir/merged.txt" >&2 || true
    fail "worksteal: merged render differs from the single-process run"
fi
hits=$(store_count hits "$dir/merged.err")
computed=$(store_count computed "$dir/merged.err")
[ -n "$hits" ] && [ "$hits" -ge 1 ] || fail "worksteal: merge render reported no hits"
[ "${computed:-1}" -eq 0 ] || fail "worksteal: merge render recomputed '$computed' units"
log "worksteal: $done_count/$total done, $recovered recovered; HTTP merge byte-identical ($hits hits, 0 computed)"

# --- 4. cache: warm directory render -----------------------------------------
"$dir/dtrank" run -spec all "${FLAGS[@]}" -cache "$store" >"$dir/warm.txt" 2>"$dir/warm.err"
if ! cmp -s "$dir/single.txt" "$dir/warm.txt"; then
    diff "$dir/single.txt" "$dir/warm.txt" >&2 || true
    fail "cache: warm render differs from the single-process run"
fi
hits=$(store_count hits "$dir/warm.err")
computed=$(store_count computed "$dir/warm.err")
entries=$(find "$store" -name '*.dtr' | wc -l | tr -d ' ')
[ "$entries" -ge 1 ] || fail "cache: the store holds no entries"
[ "${hits:-0}" -eq "$entries" ] || fail "cache: warm render reported '$hits' hits for $entries stored units, want one read per unit"
[ "${computed:-1}" -eq 0 ] || fail "cache: warm render recomputed '$computed' units"
log "cache: warm directory render byte-identical ($hits hits for $entries stored units, 0 computed)"

# --- 5. reports: every other spec against the warm store ---------------------
computed_before=$(metric dtrank_report_units_computed_total)
specs=$(curl -fsS "$base/v1/reports" | tr ',' '\n' | sed -n 's/.*"spec":"\([^"]*\)".*/\1/p')
n=0
for spec in $specs; do
    [ "$spec" = "$FIRST_SPEC" ] && continue
    curl -fsS "$base/v1/reports/$spec" >"$dir/served-$spec.txt"
    "$dir/dtrank" run -spec "$spec" -cache "$store" "${FLAGS[@]}" >"$dir/cli-$spec.txt" 2>/dev/null
    if ! cmp -s "$dir/served-$spec.txt" "$dir/cli-$spec.txt"; then
        diff "$dir/cli-$spec.txt" "$dir/served-$spec.txt" >&2 || true
        fail "reports: served $spec differs from the CLI render"
    fi
    n=$(( n + 1 ))
done
[ "$n" -ge 1 ] || fail "reports: /v1/reports listed no other spec"
computed_after=$(metric dtrank_report_units_computed_total)
[ "$computed_after" -eq "$computed_before" ] ||
    fail "reports: cold requests against a warm store recomputed $(( computed_after - computed_before )) units, want 0"

hits_before=$(metric dtrank_reportcache_hits_total)
curl -fsS "$base/v1/reports/$FIRST_SPEC" >"$dir/served2.txt"
hits_after=$(metric dtrank_reportcache_hits_total)
[ "$hits_after" -gt "$hits_before" ] || fail "reports: re-render was not a cache hit ($hits_before -> $hits_after)"
cmp -s "$dir/served1.txt" "$dir/served2.txt" || fail "reports: the render cache served different bytes"

etag=$(sed -n 's/^[Ee][Tt]ag: \(.*\)\r\{0,1\}$/\1/p' "$dir/headers1.txt" | tr -d '\r')
if [ -z "$etag" ]; then
    cat "$dir/headers1.txt" >&2
    fail "reports: no ETag on the report response"
fi
nm_before=$(metric dtrank_reportcache_not_modified_total)
code=$(curl -fsS -o "$dir/body304.txt" -w '%{http_code}' -H "If-None-Match: $etag" "$base/v1/reports/$FIRST_SPEC")
nm_after=$(metric dtrank_reportcache_not_modified_total)
if [ "$code" != "304" ] || [ -s "$dir/body304.txt" ]; then
    fail "reports: If-None-Match got HTTP $code with $(wc -c <"$dir/body304.txt") bytes, want a bodyless 304"
fi
[ "$nm_after" -gt "$nm_before" ] || fail "reports: not_modified counter did not move ($nm_before -> $nm_after)"
log "reports: $n more specs byte-identical with 0 units computed; re-render cached; If-None-Match answered 304"

# --- 6. loadtest ----------------------------------------------------------------
# The loadtest gates itself: non-zero exit on request errors, on p99 over
# the floor, or on a cold response cache. Its bench lines are the only
# stdout of this script.
"$dir/dtrank" loadtest -url "$base" -duration 2s -workers 8 \
    -methods "NN^T,MLP^T" -apps "gcc,mcf,libquantum" -reports table3 \
    -slo-p99 "${P99_MS}ms" -min-cache-hits 1 -trace
log "loadtest: p99 under ${P99_MS}ms with a warm response cache"

# --- 7. metrics -----------------------------------------------------------------
# Every non-comment /metrics line must be `name{labels} value`.
curl -fsS "$base/metrics" >"$dir/metrics.txt"
series='^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$'
bad=$(grep -v '^#' "$dir/metrics.txt" | grep -cvE "$series" || true)
if [ "$bad" -ne 0 ]; then
    grep -v '^#' "$dir/metrics.txt" | grep -vE "$series" >&2
    fail "metrics: $bad unparseable /metrics lines"
fi
dups=$(grep -v '^#' "$dir/metrics.txt" | sed 's/ [^ ]*$//' | sort | uniq -d)
[ -z "$dups" ] || fail "metrics: duplicate series in /metrics: $dups"
rank_count=$(sed -n 's/^dtrank_http_request_seconds_count{route="\/v1\/rank"} \([0-9]*\)$/\1/p' "$dir/metrics.txt")
[ "${rank_count:-0}" -gt 0 ] || fail "metrics: /v1/rank histogram count = '${rank_count:-missing}', want > 0"

curl -fsS "$base/v1/status" >"$dir/status.json"
p99=$(sed -n 's/.*"\/v1\/rank":{[^}]*"p99_ns":\([0-9]*\).*/\1/p' "$dir/status.json")
if [ -z "$p99" ] || [ "$p99" -le 0 ] || [ "$p99" -ge $(( P99_MS * 1000000 )) ]; then
    cat "$dir/status.json" >&2
    fail "metrics: /v1/status /v1/rank p99_ns = '${p99:-missing}', want in (0, ${P99_MS}ms)"
fi

curl -fsS "$dbase/metrics" >"$dir/debug-metrics.txt"
grep -q '^dtrank_http_request_seconds_count' "$dir/debug-metrics.txt" ||
    fail "metrics: the debug listener's /metrics mirror lacks the histogram"
curl -fsS "$dbase/debug/pprof/" >/dev/null || fail "metrics: the debug listener's /debug/pprof/ is unreachable"

trace="feedfacecafef00d"
curl -fsS -H "X-Dtrank-Trace: $trace" -o /dev/null "$base/healthz"
if ! grep -q "\"trace\":\"$trace\"" "$dir/dtrankd.log"; then
    tail -5 "$dir/dtrankd.log" >&2
    fail "metrics: trace $trace not found in the daemon's JSON logs"
fi
log "metrics: $(grep -cv '^#' "$dir/metrics.txt") series, $rank_count /v1/rank observations, p99 ${p99}ns; debug listener and trace propagation ok"

log "OK"
