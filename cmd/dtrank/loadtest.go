package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// loadQuery is one request shape of the loadtest mix: a POST /v1/rank
// body, or a GET when path is set (the /v1/reports/{spec} mix). method is
// the reporting label either way.
type loadQuery struct {
	method string
	body   []byte
	path   string // non-empty: GET this path instead of posting a ranking
}

// slowReq is one of the slowest observed requests, kept with its trace ID
// so `-trace` output can be joined against the daemon's logs.
type slowReq struct {
	ns     int64
	trace  string
	method string
}

// slowestN is how many slow requests -trace reports.
const slowestN = 5

// recordSlow inserts r into the bounded slowest list, evicting the
// fastest entry when full. The list stays sorted slowest-first.
func recordSlow(list []slowReq, r slowReq) []slowReq {
	i := sort.Search(len(list), func(i int) bool { return list[i].ns < r.ns })
	if i >= slowestN {
		return list
	}
	if len(list) < slowestN {
		list = append(list, slowReq{})
	}
	copy(list[i+1:], list[i:])
	list[i] = r
	return list
}

// mergeSlow folds two slowest lists into one bounded list.
func mergeSlow(a, b []slowReq) []slowReq {
	for _, r := range b {
		a = recordSlow(a, r)
	}
	return a
}

// loadtestResult aggregates one run: per-method and overall histograms
// plus achieved throughput.
type loadtestResult struct {
	overall   *obs.Histogram
	perMethod map[string]*obs.Histogram
	methods   []string // mix order, for stable output
	slowest   []slowReq
	elapsed   time.Duration
	errors    int64
	firstErr  string
}

// qps returns the achieved request rate.
func (r *loadtestResult) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.overall.Count()) / r.elapsed.Seconds()
}

// runLoadtestWorkers drives the closed-loop load: workers cycle through
// the query mix against base until the deadline, each recording into
// private histograms that merge afterwards. qps > 0 paces the aggregate
// request rate (each request n is released at start + n/qps); qps == 0
// runs flat out. When traceSlow is set, each worker also keeps its
// slowest requests with their X-Dtrank-Trace response headers.
func runLoadtestWorkers(client *http.Client, base string, queries []loadQuery, workers int, duration time.Duration, qps float64, traceSlow bool) *loadtestResult {
	res := &loadtestResult{overall: obs.NewHistogram(), perMethod: map[string]*obs.Histogram{}}
	for _, q := range queries {
		if res.perMethod[q.method] == nil {
			res.perMethod[q.method] = obs.NewHistogram()
			res.methods = append(res.methods, q.method)
		}
	}

	type workerObs struct {
		overall   *obs.Histogram
		perMethod map[string]*obs.Histogram
		slowest   []slowReq
		errors    int64
		firstErr  string
	}
	start := time.Now()
	deadline := start.Add(duration)
	var ticket int64
	var ticketMu sync.Mutex
	nextSlot := func() time.Time {
		ticketMu.Lock()
		n := ticket
		ticket++
		ticketMu.Unlock()
		return start.Add(time.Duration(float64(n) / qps * float64(time.Second)))
	}

	results := make([]workerObs, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := workerObs{overall: obs.NewHistogram(), perMethod: map[string]*obs.Histogram{}}
			for _, q := range queries {
				if o.perMethod[q.method] == nil {
					o.perMethod[q.method] = obs.NewHistogram()
				}
			}
			for i := w; ; i++ {
				if qps > 0 {
					slot := nextSlot()
					if sleep := time.Until(slot); sleep > 0 {
						time.Sleep(sleep)
					}
				}
				if !time.Now().Before(deadline) {
					break
				}
				q := queries[i%len(queries)]
				t0 := time.Now()
				trace, err := issueQuery(client, base, q)
				lat := time.Since(t0)
				if err != nil {
					o.errors++
					if o.firstErr == "" {
						o.firstErr = err.Error()
					}
					continue
				}
				o.overall.Observe(lat)
				o.perMethod[q.method].Observe(lat)
				if traceSlow {
					o.slowest = recordSlow(o.slowest, slowReq{ns: lat.Nanoseconds(), trace: trace, method: q.method})
				}
			}
			results[w] = o
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, o := range results {
		res.overall.Merge(o.overall)
		for m, h := range o.perMethod {
			res.perMethod[m].Merge(h)
		}
		res.slowest = mergeSlow(res.slowest, o.slowest)
		res.errors += o.errors
		if res.firstErr == "" {
			res.firstErr = o.firstErr
		}
	}
	return res
}

// issueQuery issues one request of the mix — POST /v1/rank, or GET for
// path-shaped queries — drains the response and returns the request's
// X-Dtrank-Trace header.
func issueQuery(client *http.Client, base string, q loadQuery) (string, error) {
	var resp *http.Response
	var err error
	if q.path != "" {
		resp, err = client.Get(base + q.path)
	} else {
		resp, err = client.Post(base+"/v1/rank", "application/json", bytes.NewReader(q.body))
	}
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	trace := resp.Header.Get(obs.TraceHeader)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return trace, err
	}
	if resp.StatusCode != http.StatusOK {
		return trace, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return trace, nil
}

// benchLine renders one benchmark-shaped result line, parseable by
// cmd/benchstatjson exactly like `go test -bench` output: iterations,
// mean ns/op, then percentile and throughput metric pairs.
func benchLine(name string, h *obs.Histogram, qps float64) string {
	return fmt.Sprintf("BenchmarkLoadtest/%s \t%8d\t%12.0f ns/op\t%12d p50-ns\t%12d p95-ns\t%12d p99-ns\t%10.1f qps",
		name, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), qps)
}

// runLoadtest is the `dtrank loadtest` subcommand: an SLO-gated load
// generator for a live dtrankd. Closed-loop workers drive a configurable
// method/application mix — plus, with -reports, a GET /v1/reports/{spec}
// mix exercising the report render cache — latency is captured in
// log-bucketed histograms,
// and the results print as benchmark-shaped lines on stdout so
// `... | benchstatjson` folds them into a BENCH_<date>.json snapshot
// next to the go test -bench entries. With -slo-p99 the command exits
// non-zero when the overall p99 exceeds the floor, and with
// -min-cache-hits it asserts the daemon's response cache actually
// carried load — the CI smoke gate.
func runLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8117", "base URL of the dtrankd under test")
	duration := fs.Duration("duration", 3*time.Second, "measured run length")
	workers := fs.Int("workers", 8, "closed-loop worker count")
	qps := fs.Float64("qps", 0, "aggregate request rate to pace to (0 = flat out)")
	family := fs.String("family", "Intel Xeon", "target processor family of every query")
	apps := fs.String("apps", "gcc,mcf,libquantum", "comma-separated applications of interest, cycled through the mix")
	methods := fs.String("methods", "NN^T,MLP^T", "comma-separated method mix, cycled per request (repeat a name to weight it)")
	top := fs.Int("top", 10, "ranking length requested")
	reports := fs.String("reports", "", "comma-separated spec ids mixed in as GET /v1/reports/{spec} requests (empty = rankings only)")
	warmup := fs.Bool("warmup", true, "issue one unmeasured request per query shape first (pays cold fits outside the histogram)")
	sloP99 := fs.Duration("slo-p99", 0, "fail when overall p99 exceeds this (0 = no gate)")
	minCacheHits := fs.Int64("min-cache-hits", 0, "fail unless the daemon's /metrics reports at least this many dtrank_rankcache_hits_total after the run")
	traceSlow := fs.Bool("trace", false, "report the slowest requests' X-Dtrank-Trace IDs on stderr, joinable against the daemon's logs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimSuffix(*url, "/")

	var queries []loadQuery
	for _, m := range strings.Split(*methods, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		canon, err := serve.CanonicalMethod(m)
		if err != nil {
			return err
		}
		for _, app := range strings.Split(*apps, ",") {
			app = strings.TrimSpace(app)
			if app == "" {
				continue
			}
			body, err := json.Marshal(serve.RankRequest{Family: *family, App: app, Method: canon, Top: *top})
			if err != nil {
				return err
			}
			queries = append(queries, loadQuery{method: canon, body: body})
		}
	}
	for _, spec := range strings.Split(*reports, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		queries = append(queries, loadQuery{method: "report:" + spec, path: "/v1/reports/" + spec})
	}
	if len(queries) == 0 {
		return fmt.Errorf("empty query mix (check -methods, -apps and -reports)")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	if *warmup {
		// Report warmups pay the first render (plan, compute missing units,
		// render) outside the histogram, exactly like cold rank fits.
		for _, q := range queries {
			if _, err := issueQuery(client, base, q); err != nil {
				return fmt.Errorf("warmup %s: %w", q.method, err)
			}
		}
	}

	fmt.Fprintf(os.Stderr, "loadtest: %d workers × %s against %s, %d query shapes\n",
		*workers, *duration, base, len(queries))
	res := runLoadtestWorkers(client, base, queries, *workers, *duration, *qps, *traceSlow)
	if res.overall.Count() == 0 {
		if res.firstErr != "" {
			return fmt.Errorf("no successful requests (first error: %s)", res.firstErr)
		}
		return fmt.Errorf("no requests completed within -duration")
	}

	// Benchmark-shaped results on stdout; everything else on stderr.
	fmt.Println(benchLine("overall", res.overall, res.qps()))
	for _, m := range res.methods {
		h := res.perMethod[m]
		if h.Count() == 0 {
			continue
		}
		fmt.Println(benchLine("method="+m, h, float64(h.Count())/res.elapsed.Seconds()))
	}
	fmt.Fprintf(os.Stderr, "loadtest: %d requests in %s (%.1f qps), p50 %s p95 %s p99 %s, %d errors\n",
		res.overall.Count(), res.elapsed.Round(time.Millisecond), res.qps(),
		time.Duration(res.overall.Quantile(0.50)), time.Duration(res.overall.Quantile(0.95)),
		time.Duration(res.overall.Quantile(0.99)), res.errors)
	if *traceSlow {
		for _, s := range res.slowest {
			fmt.Fprintf(os.Stderr, "loadtest: slow %s trace=%s method=%s\n",
				time.Duration(s.ns).Round(time.Microsecond), s.trace, s.method)
		}
	}

	if res.errors > 0 {
		return fmt.Errorf("%d of %d requests failed (first error: %s)",
			res.errors, res.errors+res.overall.Count(), res.firstErr)
	}
	if *sloP99 > 0 {
		if p99 := time.Duration(res.overall.Quantile(0.99)); p99 > *sloP99 {
			return fmt.Errorf("SLO violated: p99 %s exceeds -slo-p99 %s", p99, *sloP99)
		}
		fmt.Fprintf(os.Stderr, "loadtest: SLO ok: p99 %s within %s\n",
			time.Duration(res.overall.Quantile(0.99)), *sloP99)
	}
	if *minCacheHits > 0 {
		hits, err := fetchCacheHits(client, base)
		if err != nil {
			return fmt.Errorf("reading /metrics: %w", err)
		}
		if hits < *minCacheHits {
			return fmt.Errorf("%s = %d, want at least %d", rankCacheHits, hits, *minCacheHits)
		}
		fmt.Fprintf(os.Stderr, "loadtest: cache ok: %d %s\n", hits, rankCacheHits)
	}
	return nil
}

// rankCacheHits is the /metrics series -min-cache-hits gates on.
const rankCacheHits = "dtrank_rankcache_hits_total"

// fetchCacheHits reads the daemon's rank-cache hit counter from /metrics.
func fetchCacheHits(client *http.Client, base string) (int64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, rankCacheHits+" "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s series", rankCacheHits)
}
