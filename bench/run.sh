#!/usr/bin/env bash
# Builds dtrank, dtrankd and the benchmark from this checkout, then runs the
# benchmark with every argument passed through, e.g.
#
#   bash bench/run.sh --workload rank-hot --seed 3 --seconds 10 --trace 0
#
# Every build product, Go cache, temporary file and Go's own settings and
# telemetry (kept under the user config directory) stay under .bench_build/
# at the repository root. The builds happen before the benchmark starts, so
# none of their time is measured.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
for f in go.mod cmd/dtrank cmd/dtrankd internal/serve; do
	if [ ! -e "$root/$f" ]; then
		echo "bench: $root/$f is missing; run the benchmark from a full checkout" >&2
		exit 1
	fi
done

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin" "$out/home/.config/go/telemetry"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
# With telemetry on or local (the default for a new HOME), the go command
# forks a detached sidecar that outlives it; "off" keeps it from starting.
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

cd "$root"
go build -o "$out/bin/" ./cmd/dtrank ./cmd/dtrankd
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -bin "$out/bin" -work "$out" "$@"
