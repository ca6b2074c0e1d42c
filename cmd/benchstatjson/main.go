// Command benchstatjson converts `go test -bench -benchmem` output read
// from stdin into a machine-readable JSON snapshot, so the repository can
// record its performance trajectory as BENCH_<date>.json files committed
// alongside the code (see `make bench-json`).
//
// Usage:
//
//	go test -bench=. -benchmem -benchtime=1x -run='^$' ./... | benchstatjson -o BENCH_2026-07-27.json
//	benchstatjson -diff BENCH_old.json BENCH_new.json [-max-regress 10]
//
// Lines that are not benchmark results (test framework chatter, pkg
// banners) populate the snapshot context (goos, goarch, cpu) or are
// ignored, so the tool can be fed raw `go test` output.
//
// The -diff mode compares two snapshots benchmark by benchmark and
// renders a delta table. Allocation regressions beyond -max-regress
// percent make the command exit non-zero — allocs/op is deterministic,
// so it is the CI perf gate. Time deltas are reported and, past the
// same threshold, warned about, but never fail the comparison:
// single-shot times on shared runners are too noisy to gate on.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark measurement.
type Result struct {
	// Name is the full benchmark name including sub-benchmarks and the
	// -cpu suffix, e.g. "BenchmarkRunFamilyCV/serial-8".
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in (from the preceding "pkg:"
	// banner line).
	Pkg string `json:"pkg,omitempty"`
	// Iterations is the b.N the reported averages were taken over.
	Iterations int64 `json:"iterations"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was set.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any further "<value> <unit>" pairs on the line, as
	// emitted by b.ReportMetric or by `dtrank loadtest` (e.g. "qps",
	// "p99-ns"), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the JSON document: run context plus all results.
type Snapshot struct {
	Date    string   `json:"date"`
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	date := flag.String("date", "", "snapshot date (default today, YYYY-MM-DD)")
	diff := flag.Bool("diff", false, "compare two snapshot files: benchstatjson -diff old.json new.json")
	maxRegress := flag.Float64("max-regress", 10, "with -diff, fail when allocs/op grows by more than this percent")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchstatjson: -diff needs exactly two snapshot files")
			os.Exit(2)
		}
		regressions, err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1),
			diffOptions{MaxRegress: *maxRegress, WarnTimePct: *maxRegress})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchstatjson:", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}
	snap, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchstatjson:", err)
		os.Exit(1)
	}
	snap.Date = *date
	if snap.Date == "" {
		snap.Date = time.Now().Format("2006-01-02")
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchstatjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchstatjson:", err)
		os.Exit(1)
	}
}

// parse scans go test output for context banners and benchmark lines.
func parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Results: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case endsPackage(line):
			// Results printed after a package's run (e.g. `dtrank
			// loadtest` lines appended to the stream) belong to no
			// package, not to the last one tested.
			pkg = ""
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if ok {
				res.Pkg = pkg
				snap.Results = append(snap.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.Results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found on stdin")
	}
	return snap, nil
}

// endsPackage reports whether line is the status line that closes one
// package's `go test` output: "PASS", "FAIL", "ok <pkg> <time>" or
// "FAIL <pkg> <time>".
func endsPackage(line string) bool {
	f := strings.Fields(line)
	return len(f) > 0 && (f[0] == "ok" || f[0] == "PASS" || f[0] == "FAIL")
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkNNTFold-8   	     100	  11402031 ns/op	  286496 B/op	    2342 allocs/op
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		f, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "B/op":
			v := int64(f)
			res.BytesPerOp = &v
		case "allocs/op":
			v := int64(f)
			res.AllocsPerOp = &v
		default:
			// Custom metrics (b.ReportMetric, loadtest percentiles/QPS)
			// ride along as "<value> <unit>" pairs.
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = f
		}
	}
	return res, true
}
