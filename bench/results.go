package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of dtrankd or dtrank sees, reported by
// every untraced run; BENCHMARK.json gives each its direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"rss_mb", "MiB"},
}

// Spans timed around calls into each layer's public functions.
var (
	rankSpans = []string{
		"serve.decode", "dataset.family_split", "transpose.fold", "serve.registry_query",
		"transpose.fit.mlpt", "transpose.fit.gaknn",
		"transpose.predict.nnt", "transpose.predict.mlpt", "transpose.predict.splt",
		"transpose.predict.gaknn", "transpose.predict.knnm",
		"serve.build_response", "serve.encode",
	}
	specSpans = append(append([]string{"experiments.plan"}, reportSpans()...),
		"resultstore.get", "resultstore.put", "experiments.render_warm")
	layerSpans = append(append([]string{}, rankSpans...), specSpans...)
	// rootSpans have no parent; they report their tail instead of a self
	// share, which for a childless root is always 1.
	rootSpans = []string{"http.roundtrip", "serve.handler"}
)

func reportSpans() []string {
	var out []string
	for _, id := range experiments.SpecIDs() {
		out = append(out, "experiments.report."+id)
	}
	return out
}

// perLayer are the metrics a traced run reports: /metrics deltas and
// process counters first, then per-span statistics, then counts.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dtrankd.cpu_ms_per_op", "ms"},
		{"loadgen.cpu_ms_per_op", "ms"},
		{"serve.handler_ms_mean", "ms"},
		{"serve.rankcache.hit_ratio", "ratio"},
		{"serve.rankcache.not_modified_ratio", "ratio"},
		{"serve.registry.hit_ratio", "ratio"},
		{"serve.registry.fits_per_req", "fits/req"},
		{"serve.registry.evictions_per_req", "evictions/req"},
		{"serve.coalesced_per_req", "calls/req"},
		{"serve.batch.queries_per_flush", "queries/flush"},
		{"serve.batch.flush_ms_mean", "ms"},
	}
	for _, m := range []string{"nnt", "mlpt", "splt", "gaknn", "knnm"} {
		defs = append(defs, metricDef{"serve.fit_ms_mean." + m, "ms"})
	}
	for _, s := range rootSpans {
		defs = append(defs, metricDef{s + ".mean_us", "us"}, metricDef{s + ".p99_us", "us"})
	}
	for _, s := range layerSpans {
		defs = append(defs, metricDef{s + ".mean_us", "us"}, metricDef{s + ".self_share", "fraction"})
	}
	return append(defs,
		metricDef{"resultstore.hit_ratio", "ratio"},
		metricDef{"experiments.units_computed", "count"},
		metricDef{"engine.units_done", "count"},
		metricDef{"trace.overhead_p50", "fraction"},
		metricDef{"trace.coverage", "fraction"},
	)
}()

// result is one workload run.
type result struct {
	attempted, failed int64
	// problems lists every failed output check, in words.
	problems []string
	values   map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// fail records a failed operation or output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// addSpans fills the per-span metrics from the recorded spans; measured
// is the root of the decomposed replay, whose self share is the part of
// traced time no layer span accounts for.
func (r *result) addSpans(spans []span, measured string) {
	byName := summarize(spans)
	for _, name := range rootSpans {
		if st := byName[name]; st != nil {
			r.values[name+".mean_us"] = float64(st.total) / float64(len(st.durs)) / 1e3
			r.values[name+".p99_us"] = percentile(st.durs, 0.99) / 1e3
		}
	}
	for _, name := range layerSpans {
		if st := byName[name]; st != nil {
			r.values[name+".mean_us"] = float64(st.total) / float64(len(st.durs)) / 1e3
			r.values[name+".self_share"] = ratio(float64(st.self), float64(st.traced))
		}
	}
	if st := byName[measured]; st != nil {
		r.values["trace.coverage"] = 1 - ratio(float64(st.self), float64(st.total))
	}
}

// hostInfo describes where a run was measured.
func hostInfo() map[string]string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]string{
		"cpu":        cpu,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// record is a result file: the result line plus what compare needs to
// pair runs and the host it ran on.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Seconds  float64           `json:"seconds"`
	Smoke    bool              `json:"smoke"`
	Host     map[string]string `json:"host"`
	resultLine
}

func (r *result) toLine(defs []metricDef) resultLine {
	l := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := r.values[d.name]
		switch {
		case math.IsInf(v, 1):
			v = math.MaxFloat32 // a percentile reached the failed requests
		case math.IsNaN(v) || math.IsInf(v, -1):
			v = 0
		}
		l.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return l
}

// report prints the run's metrics, one per line, then the result line, and
// saves the result file under the work directory: in results/, or for a
// -smoke run in smoke-results/, so that compare never mixes the two.
func report(w io.Writer, e *env, workload string, r *result) error {
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	l := r.toLine(defs)
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s: FAILED %s\n", workload, p)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-12s %-40s %14.6g %s\n", workload, d.name, l.Metrics[d.name].Value, d.unit)
	}
	rec := record{Workload: workload, Seed: e.seed, Trace: e.trace, Seconds: e.phase.Seconds(), Smoke: e.smoke, Host: hostInfo(), resultLine: l}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.work, "results")
	if e.smoke {
		dir = filepath.Join(e.work, "smoke-results")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, e.seed, b2i(e.trace), time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	out, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
