# The one list of CI commands: every job in .github/workflows/ci.yml
# calls one of these targets, and `make ci` runs them all locally.

GO ?= go
DATE ?= $(shell date +%Y-%m-%d)

.PHONY: build test fuzz bench bench-module bench-json bench-gate examples serve smoke lint staticcheck ci

build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

# The second run takes math.Exp off its FMA path, where lanes.Exp and
# lanes.Pow must equal math.Exp and math.Pow bit for bit, and where the
# synthesis recipe golden must still hold: result-store keys name the
# recipe, so every amd64 host must synthesise the same data from it.
test:
	$(GO) test -race -timeout 30m ./...
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/lanes ./internal/synth

# Each fuzz target runs briefly on top of its committed seed corpus
# (internal/*/testdata/fuzz); plain `go test` replays the corpora only.
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

# bench/ is its own Go module, so the root `go test ./...` never reaches
# it: vet and test it, then run every workload once in smoke mode
# against freshly built dtrank and dtrankd.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --smoke

# Record a performance snapshot: run the benchmark suite with -benchmem
# plus the smoke scenario's short serving loadtest (smoke.sh prints only
# its benchmark-shaped lines on stdout), and write the machine-readable BENCH_<date>.json for
# committing. Dedicated perf runs should bump -benchtime (e.g.
# BENCHTIME=5x).
BENCHTIME ?= 1x
bench-json:
	( $(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run='^$$' ./... \
		&& ./scripts/smoke.sh ) \
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

# The end-to-end scenario: one build, one dtrankd and one result store
# through the serve, report, work-stealing, cache, loadtest and metrics
# phases (see the header of scripts/smoke.sh).
smoke:
	./scripts/smoke.sh

# Every exponential goes through lanes.Exp or lanes.Pow, which give one
# result on every amd64 CPU; math.Exp's result depends on whether the
# CPU has FMA. bench/ is its own module and feeds no result.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
		-e 'math\.Exp(' -e 'math\.Pow(' . | grep -v '^\./internal/lanes/'); if [ -n "$$out" ]; then \
		echo "use lanes.Exp or lanes.Pow in place of:" >&2; echo "$$out" >&2; exit 1; \
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

ci: lint staticcheck build test fuzz bench bench-module bench-gate examples smoke
