# Mirrors .github/workflows/ci.yml so local runs and CI execute the
# identical commands.

GO ?= go
DATE ?= $(shell date +%Y-%m-%d)

.PHONY: build test fuzz bench bench-json bench-gate examples serve serve-smoke cache-smoke shard-smoke worksteal-smoke loadtest-smoke metrics-smoke report-smoke lint staticcheck ci

build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test -race -timeout 30m ./...
	GODEBUG=cpu.fma=off $(GO) test ./internal/lanes ./internal/mlp ./internal/gaknn ./internal/transpose

# Each fuzz target runs briefly on top of its committed seed corpus, as
# the CI test job does; plain `go test` replays the corpora only.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzInmMatches$$' -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzQueryShape$$' -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeModel$$' -fuzztime=10s ./internal/transpose
	$(GO) test -run='^$$' -fuzz='^FuzzReadEntryKey$$' -fuzztime=10s ./internal/resultstore
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeEntry$$' -fuzztime=10s ./internal/resultstore
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePayload$$' -fuzztime=10s ./internal/resultstore
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=10s ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRankRequest$$' -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzWorkRequest$$' -fuzztime=10s ./internal/coord
	$(GO) test -run='^$$' -fuzz='^FuzzSigmoidLanes$$' -fuzztime=10s ./internal/lanes
	$(GO) test -run='^$$' -fuzz='^FuzzLooLanes$$' -fuzztime=10s ./internal/gaknn

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# Record a performance snapshot: run the benchmark suite with -benchmem
# plus a short serving loadtest (the smoke script prints benchmark-shaped
# lines on stdout), and write the machine-readable BENCH_<date>.json for
# committing. Dedicated perf runs should bump -benchtime (e.g.
# BENCHTIME=5x).
BENCHTIME ?= 1x
bench-json:
	( $(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run='^$$' ./... \
		&& ./scripts/loadtest-smoke.sh ) \
		| $(GO) run ./cmd/benchstatjson -o BENCH_$(DATE).json
	@echo wrote BENCH_$(DATE).json

# Perf-regression gate: run the fit-path benchmarks once and diff the
# result against the newest committed BENCH_<date>.json with
# `benchstatjson -diff`. Hard-fails when allocs/op grows by more than
# MAX_REGRESS percent (default 10); ns/op regressions only warn.
bench-gate:
	./scripts/bench-gate.sh

# Execute every example program end to end (not just compile them).
examples:
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/purchasing > /dev/null
	$(GO) run ./examples/scheduling > /dev/null
	$(GO) run ./examples/prototype > /dev/null
	$(GO) run ./examples/designspace > /dev/null
	$(GO) run ./examples/serving > /dev/null
	@echo all examples ran

# Run the ranking daemon on the synthetic database (Ctrl-C to stop).
serve:
	$(GO) run ./cmd/dtrankd

# End-to-end daemon check: start dtrankd, curl /healthz and /v1/rank, and
# assert the server ranking is byte-identical to `dtrank rank -json`.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end result-store check: run `dtrank run -spec all -cache` twice
# and assert the warm rerun is byte-identical and recomputes nothing.
cache-smoke:
	./scripts/cache-smoke.sh

# End-to-end sharding check: two `-shard i/2` processes into one shared
# store (directory and dtrankd-served HTTP), then a merge render that
# must be byte-identical to a single-process run with 0 recomputes.
shard-smoke:
	./scripts/shard-smoke.sh

# End-to-end work-stealing check: dtrankd -coordinate plus two -worker
# processes, one SIGKILLed mid-lease; the survivor drains the plan, the
# coordinator reports >= 1 recovered unit and 0 lost, and the merged
# render is byte-identical to a single-process run.
worksteal-smoke:
	./scripts/worksteal-smoke.sh

# End-to-end serving-SLO check: dtrankd up, a short `dtrank loadtest`
# against it, gated on p99 under a generous floor and on the response
# cache actually serving hits. Fails the build on an SLO regression.
loadtest-smoke:
	./scripts/loadtest-smoke.sh

# End-to-end observability check: dtrankd up with JSON logs and the debug
# listener, a short traced loadtest, then assert /metrics parses with a
# populated /v1/rank histogram, /v1/status reports a positive p99 under
# the SLO floor, pprof answers, and a known trace ID lands in the logs.
metrics-smoke:
	./scripts/metrics-smoke.sh

# End-to-end report-serving check: dtrankd over an empty shared store, a
# cold GET /v1/reports/{spec} that computes its missing units, CLI
# renders cmp'd byte-identical to the served bodies for every spec, a
# warm render served from the report cache, and an If-None-Match 304.
report-smoke:
	./scripts/report-smoke.sh

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Mirrors the CI staticcheck job. CI installs the pinned version; locally
# the check is skipped with a hint when the binary is absent, so offline
# machines keep a working `make ci`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

ci: lint staticcheck build test fuzz bench bench-gate examples serve-smoke cache-smoke shard-smoke worksteal-smoke loadtest-smoke metrics-smoke report-smoke
