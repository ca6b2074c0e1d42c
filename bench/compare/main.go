// Command compare judges two sets of benchmark result files, the parent
// commit's (OLD) and a change's (NEW):
//
//	go run ./compare [-benchmark ../BENCHMARK.json] OLD NEW
//
// OLD and NEW are directories of result files (or single files) as the
// benchmark writes them under .bench_build/results. For every (workload,
// metric) it prints each side's median and quartiles and a verdict:
//
//   - improved: NEW wins at least 9 of every 10 runs paired by seed (ties
//     count for neither; a seed run on one side only pairs with nothing)
//     and the medians differ by more than OLD's interquartile range;
//   - unresolved: a side's spread (interquartile range over median) is
//     wider than the metric's bound, unless every NEW run reads better
//     than every OLD run;
//   - regressed: NEW's median is worse than OLD's by more than the bound;
//   - within bound: otherwise.
//
// Per-layer metrics have no bound; they read improved, worse or ~. The
// exit status is 1 when any end-to-end metric regressed or is unresolved,
// or when a run failed its output checks. Results of -smoke runs, runs of
// different lengths, and two runs of one workload with the same seed and
// trace setting on one side are refused (exit status 2).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmark struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// record is the part of a result file compare reads.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Smoke    bool    `json:"smoke"`
	Correct  bool    `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	file string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "../BENCHMARK.json", "BENCHMARK.json giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-benchmark BENCHMARK.json] OLD NEW")
		return 2
	}
	var spec benchmark
	blob, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(blob, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	old, err := load(fs.Arg(0))
	var cur []record
	if err == nil {
		cur, err = load(fs.Arg(1))
	}
	var oldG, curG map[group]map[int64]record
	if err == nil {
		err = sameLength(append(append([]record{}, old...), cur...))
	}
	if err == nil {
		oldG, err = bySeed(old)
	}
	if err == nil {
		curG, err = bySeed(cur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	return report(stdout, spec, oldG, curG)
}

// load reads every *.json result file under path (or path itself).
func load(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []record
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Smoke {
			return nil, fmt.Errorf("%s: result of a -smoke run", f)
		}
		r.file = f
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// sameLength refuses records whose measured phases differ in length.
func sameLength(rs []record) error {
	for _, r := range rs {
		if r.Seconds != rs[0].Seconds {
			return fmt.Errorf("%s ran %vs phases, %s %vs", r.file, r.Seconds, rs[0].file, rs[0].Seconds)
		}
	}
	return nil
}

// group is the runs compare puts side by side: one workload, traced or not.
type group struct {
	workload string
	trace    bool
}

// bySeed files each record under its group and seed, the key runs are
// paired by; a second run of a group with the same seed is an error.
func bySeed(rs []record) (map[group]map[int64]record, error) {
	out := map[group]map[int64]record{}
	for _, r := range rs {
		g := group{r.Workload, r.Trace}
		if out[g] == nil {
			out[g] = map[int64]record{}
		}
		if prev, ok := out[g][r.Seed]; ok {
			return nil, fmt.Errorf("%s and %s both ran %s (trace %v) with seed %d", prev.file, r.file, r.Workload, r.Trace, r.Seed)
		}
		out[g][r.Seed] = r
	}
	return out, nil
}

func report(w io.Writer, spec benchmark, oldG, newG map[group]map[int64]record) int {
	code := 0
	for _, side := range []map[group]map[int64]record{oldG, newG} {
		for _, runs := range side {
			for _, r := range runs {
				if !r.Correct {
					fmt.Fprintf(w, "FAILED output checks: %s\n", r.file)
					code = 1
				}
			}
		}
	}
	var groups []group
	for g := range oldG {
		if _, ok := newG[g]; ok {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return !groups[i].trace && groups[j].trace
	})
	fmt.Fprintf(w, "%-11s %-38s %-30s %-30s %8s  %s\n", "workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "delta", "verdict")
	for _, g := range groups {
		for _, groups := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			for _, m := range groups {
				o, n := values(oldG[g], m.Name), values(newG[g], m.Name)
				if len(o) == 0 || len(n) == 0 {
					continue
				}
				v := judge(m, o, n)
				if m.Bound != nil && (v == "regressed" || v == "unresolved") {
					code = 1
				}
				oq, nq := quartiles(list(o)), quartiles(list(n))
				fmt.Fprintf(w, "%-11s %-38s %-30s %-30s %+7.1f%%  %s\n", g.workload, m.Name,
					fmt.Sprintf("%.4g [%.4g %.4g]", oq[1], oq[0], oq[2]),
					fmt.Sprintf("%.4g [%.4g %.4g]", nq[1], nq[0], nq[2]),
					100*(nq[1]-oq[1])/math.Abs(oq[1]), v)
			}
		}
	}
	return code
}

// values returns each run's reading of metric, by seed.
func values(runs map[int64]record, metric string) map[int64]float64 {
	out := map[int64]float64{}
	for seed, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out[seed] = v.Value
		}
	}
	return out
}

// judge returns the verdict for one metric; see the package comment.
func judge(m metricSpec, old, cur map[int64]float64) string {
	sign := 1.0 // positive when larger is better
	if m.Better == "lower" {
		sign = -1
	}
	better := func(a, b float64) bool { return sign*(a-b) > 0 }
	oq, nq := quartiles(list(old)), quartiles(list(cur))
	apart := math.Abs(nq[1]-oq[1]) > oq[2]-oq[0]
	switch {
	case apart && wins(old, cur, better):
		return "improved"
	case m.Bound == nil && apart && wins(cur, old, better):
		return "worse"
	case m.Bound == nil:
		return "~"
	case math.Max(iqrShare(oq), iqrShare(nq)) > *m.Bound && !allBetter(cur, old, better):
		return "unresolved"
	case -sign*(nq[1]-oq[1])/math.Abs(oq[1]) > *m.Bound:
		return "regressed"
	}
	return "within bound"
}

// wins reports whether b beats a in at least 9 of every 10 runs paired
// by seed; ties count for neither.
func wins(a, b map[int64]float64, better func(x, y float64) bool) bool {
	n, won := 0, 0
	for seed, av := range a {
		if bv, ok := b[seed]; ok {
			n++
			if better(bv, av) {
				won++
			}
		}
	}
	return n > 0 && 10*won >= 9*n
}

func allBetter(cur, old map[int64]float64, better func(x, y float64) bool) bool {
	for _, c := range cur {
		for _, o := range old {
			if !better(c, o) {
				return false
			}
		}
	}
	return true
}

func list(xs map[int64]float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

func iqrShare(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	ld, m := len(s), len(s)+1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
