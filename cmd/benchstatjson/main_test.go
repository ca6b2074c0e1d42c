package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunFamilyCV/serial-8         	       2	8009723716 ns/op	59043208 B/op	  167788 allocs/op
BenchmarkRunFamilyCV/parallel-8       	       2	8153891858 ns/op	59043040 B/op	  167786 allocs/op
PASS
ok  	repro	48.626s
goos: linux
goarch: amd64
pkg: repro/internal/la
BenchmarkMul-8	     100	  11402031 ns/op
PASS
`

func TestParse(t *testing.T) {
	snap, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GoOS != "linux" || snap.GoArch != "amd64" {
		t.Fatalf("context = %q/%q", snap.GoOS, snap.GoArch)
	}
	if !strings.Contains(snap.CPU, "Xeon") {
		t.Fatalf("cpu = %q", snap.CPU)
	}
	if len(snap.Results) != 3 {
		t.Fatalf("%d results, want 3", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Name != "BenchmarkRunFamilyCV/serial-8" || r.Pkg != "repro" {
		t.Fatalf("result = %+v", r)
	}
	if r.Iterations != 2 || r.NsPerOp != 8009723716 {
		t.Fatalf("timing = %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 59043208 {
		t.Fatalf("bytes = %+v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 167788 {
		t.Fatalf("allocs = %+v", r.AllocsPerOp)
	}
	// The la benchmark ran without -benchmem fields.
	la := snap.Results[2]
	if la.Pkg != "repro/internal/la" || la.BytesPerOp != nil || la.AllocsPerOp != nil {
		t.Fatalf("la result = %+v", la)
	}
}

// TestParseClearsPackageAtStatusLine pins package attribution: a result
// printed after a package's closing status line (the loadtest smoke
// appends `dtrank loadtest` lines after `go test` output) carries no
// package rather than the last one tested.
func TestParseClearsPackageAtStatusLine(t *testing.T) {
	for _, status := range []string{"PASS", "FAIL", "ok  \trepro/internal/spline\t0.412s", "FAIL\trepro/internal/spline\t0.412s"} {
		out := "pkg: repro/internal/spline\n" +
			"BenchmarkFit-8 \t 10\t 1000 ns/op\n" +
			status + "\n" +
			"BenchmarkLoadtest/overall \t 1842\t 271342 ns/op\t 612.4 qps\n"
		snap, err := parse(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Results) != 2 {
			t.Fatalf("%q: %d results, want 2", status, len(snap.Results))
		}
		if got := snap.Results[0].Pkg; got != "repro/internal/spline" {
			t.Fatalf("%q: spline result pkg %q", status, got)
		}
		if got := snap.Results[1].Pkg; got != "" {
			t.Fatalf("%q: loadtest result after the status line has pkg %q, want none", status, got)
		}
	}
}

// TestParseCustomMetrics covers the "<value> <unit>" pairs beyond
// -benchmem: b.ReportMetric output and `dtrank loadtest` entries.
func TestParseCustomMetrics(t *testing.T) {
	const out = `pkg: repro/internal/serve
BenchmarkLoadtest/overall 	    1842	  271342 ns/op	  243712 p50-ns	  512000 p95-ns	  770048 p99-ns	 612.4 qps
PASS
`
	snap, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("%d results, want 1", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Iterations != 1842 || r.NsPerOp != 271342 {
		t.Fatalf("timing = %+v", r)
	}
	want := map[string]float64{"p50-ns": 243712, "p95-ns": 512000, "p99-ns": 770048, "qps": 612.4}
	if len(r.Metrics) != len(want) {
		t.Fatalf("metrics = %+v, want %+v", r.Metrics, want)
	}
	for k, v := range want {
		if r.Metrics[k] != v {
			t.Fatalf("metric %s = %v, want %v", k, r.Metrics[k], v)
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("want error for input without benchmarks")
	}
}

func TestParseBenchLineMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX 12",
		"BenchmarkX twelve 34 ns/op",
		"BenchmarkX 12 nan-ish ns/op" + "x",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Fatalf("parsed malformed line %q", line)
		}
	}
}
