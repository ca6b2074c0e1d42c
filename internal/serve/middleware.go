package serve

import (
	"log/slog"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/method"
	"repro/internal/obs"
)

// The observability middleware wraps every mounted route: a request gets a
// trace ID at ingress (or adopts a valid inbound X-Dtrank-Trace header),
// the ID flows through context into every instrumented site and returns in
// the response header, per-route latency lands in a histogram, the status
// class in a counter, and one structured access line goes to the logger.
// The metric pointers are resolved at mount time, so the per-request cost
// is two atomic ops plus the (level-gated) log call.

// endpointRoutes are the per-route metric identities, in /v1/status
// display order. Prefix mounts stand for their whole subtree, so the
// label set stays bounded whatever paths clients send.
var endpointRoutes = []string{
	"/v1/rank",
	"/v1/methods",
	"/v1/machines",
	"/v1/snapshot",
	"/v1/reports",
	"/v1/reports/",
	"/v1/status",
	"/v1/store/",
	"/v1/work/",
	"/healthz",
	"/metrics",
}

// codeClasses are the status families counted per route.
var codeClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// endpointMetrics holds one route's pre-registered instruments.
type endpointMetrics struct {
	hist  *obs.Histogram
	codes [4]*obs.Counter
}

// newEndpointMetrics registers every route's series up front so request
// handling never touches the registry.
func newEndpointMetrics(reg *obs.Registry) map[string]*endpointMetrics {
	out := make(map[string]*endpointMetrics, len(endpointRoutes))
	for _, route := range endpointRoutes {
		m := &endpointMetrics{hist: reg.Histogram("dtrank_http_request_seconds", obs.L("route", route))}
		for i, class := range codeClasses {
			m.codes[i] = reg.Counter("dtrank_http_requests_total", obs.L("route", route), obs.L("code", class))
		}
		out[route] = m
	}
	return out
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps next with the observability middleware for route.
// Without a configured logger the context injection and access-log call
// are skipped entirely — nothing downstream reads the trace except log
// lines — keeping the metrics-only hot path to the ID mint, the response
// header and four atomic ops.
func (s *Server) instrument(route string, next http.Handler) http.Handler {
	m := s.epm[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		trace := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(trace) {
			trace = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, trace)
		if s.logging {
			r = r.WithContext(obs.WithTraceID(r.Context(), trace))
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		d := time.Since(t0)
		m.hist.Observe(d)
		class := rec.status/100 - 2
		if class < 0 || class > 3 {
			class = 3
		}
		m.codes[class].Inc()
		if s.logging && s.logger.Enabled(r.Context(), slog.LevelInfo) {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "http",
				slog.String("trace", trace),
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("dur", d),
			)
		}
	})
}

// registerMetrics creates the server's own instruments — the request,
// rank, swap and report counters and the per-route, per-method and
// per-spec histograms; the caches, the registry and the coalescers
// register theirs on construction — and bridges the subsystems that keep
// their own state: entry counts, the store handler, the coordinator, the
// engine and uptime.
func (s *Server) registerMetrics(reg *obs.Registry) {
	s.epm = newEndpointMetrics(reg)
	s.fitHist = map[string]*obs.Histogram{}
	for _, info := range method.List() {
		s.fitHist[info.Name] = reg.Histogram("dtrank_fit_seconds", obs.L("method", info.Name))
	}
	s.reportHist = map[string]*obs.Histogram{}
	for _, id := range experiments.SpecIDs() {
		s.reportHist[id] = reg.Histogram("dtrank_report_render_seconds", obs.L("spec", id))
	}

	s.requests = reg.Counter("dtrank_requests_total")
	s.rankOK = reg.Counter("dtrank_rank_ok_total")
	s.rankErrors = reg.Counter("dtrank_rank_errors_total")
	s.swaps = reg.Counter("dtrank_snapshot_swaps_total")
	s.rankNotModified = reg.Counter("dtrank_rankcache_not_modified_total")
	s.reportNotModified = reg.Counter("dtrank_reportcache_not_modified_total")
	s.reportRenders = reg.Counter("dtrank_report_renders_total")
	s.reportErrors = reg.Counter("dtrank_report_errors_total")
	s.reportUnitsComputed = reg.Counter("dtrank_report_units_computed_total")
	s.reportUnitsHit = reg.Counter("dtrank_report_units_hit_total")

	reg.GaugeFunc("dtrank_registry_models", func() float64 { return float64(s.reg.Len()) })
	reg.GaugeFunc("dtrank_rankcache_entries", func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("dtrank_reportcache_entries", func() float64 { return float64(s.reports.len()) })
	if s.store != nil {
		for _, op := range []string{"gets", "get_misses", "puts", "rejected"} {
			op := op
			reg.CounterFunc("dtrank_store_server_ops_total", func() float64 {
				st := s.store.Stats()
				switch op {
				case "gets":
					return float64(st.Gets)
				case "get_misses":
					return float64(st.GetMisses)
				case "puts":
					return float64(st.Puts)
				default:
					return float64(st.Rejected)
				}
			}, obs.L("op", op))
		}
	}
	if s.work != nil {
		reg.GaugeFunc("dtrank_work_pending", func() float64 { return float64(s.work.Stats().Pending) })
		reg.GaugeFunc("dtrank_work_leased", func() float64 { return float64(s.work.Stats().Leased) })
		reg.GaugeFunc("dtrank_work_done", func() float64 { return float64(s.work.Stats().Done) })
		reg.CounterFunc("dtrank_work_units_completed_total", func() float64 { return float64(s.work.Stats().Completed) })
		reg.CounterFunc("dtrank_work_leases_granted_total", func() float64 { return float64(s.work.Stats().Granted) })
		reg.CounterFunc("dtrank_work_leases_expired_total", func() float64 { return float64(s.work.Stats().Expired) })
	}
	reg.GaugeFunc("dtrank_engine_inflight", func() float64 { return float64(engine.Default().Stats().InFlight) })
	reg.CounterFunc("dtrank_engine_units_done_total", func() float64 { return float64(engine.Default().Stats().UnitsDone) })
	reg.GaugeFunc("dtrank_uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
}

// endpointStatus is one route's row in the /v1/status snapshot. The key
// set is part of the API contract (golden-tested): count, errors, mean_ns
// and the three latency percentiles, all in nanoseconds.
type endpointStatus struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P95Ns  int64   `json:"p95_ns"`
	P99Ns  int64   `json:"p99_ns"`
}

// fitStatus is one method's model-fit latency row in /v1/status, read
// from the same dtrank_fit_seconds histogram /metrics renders. The key
// set is part of the API contract (golden-tested).
type fitStatus struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P95Ns  int64   `json:"p95_ns"`
	P99Ns  int64   `json:"p99_ns"`
}

// handleStatus serves GET /v1/status: a one-call JSON snapshot of the
// daemon's health — uptime, served snapshot, per-endpoint latency
// percentiles and every subsystem's counters. It reads the same metric
// objects /metrics renders, so the two views can never disagree.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	endpoints := make(map[string]endpointStatus, len(endpointRoutes))
	for _, route := range endpointRoutes {
		m := s.epm[route]
		var count, errors int64
		for i, c := range m.codes {
			n := c.Value()
			count += n
			if codeClasses[i] == "4xx" || codeClasses[i] == "5xx" {
				errors += n
			}
		}
		endpoints[route] = endpointStatus{
			Count:  count,
			Errors: errors,
			MeanNs: m.hist.Mean(),
			P50Ns:  m.hist.Quantile(0.50),
			P95Ns:  m.hist.Quantile(0.95),
			P99Ns:  m.hist.Quantile(0.99),
		}
	}
	fits := make(map[string]fitStatus, len(s.fitHist))
	for name, h := range s.fitHist {
		fits[name] = fitStatus{
			Count:  h.Count(),
			MeanNs: h.Mean(),
			P50Ns:  h.Quantile(0.50),
			P95Ns:  h.Quantile(0.95),
			P99Ns:  h.Quantile(0.99),
		}
	}
	reports := cacheStatus(s.reports, s.reportNotModified)
	reports["cache_enabled"] = reports["enabled"]
	delete(reports, "enabled")
	reports["renders"] = s.reportRenders.Value()
	reports["errors"] = s.reportErrors.Value()
	reports["coalesced"] = s.renders.coalesced.Value()
	reports["units_computed"] = s.reportUnitsComputed.Value()
	reports["units_hit"] = s.reportUnitsHit.Value()
	status := map[string]any{
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"snapshot":       s.snap.Load().hash,
		"models":         s.reg.Len(),
		"endpoints":      endpoints,
		"fits":           fits,
		"registry":       s.reg.Stats(),
		"rankcache":      cacheStatus(s.cache, s.rankNotModified),
		"reports":        reports,
		"engine": map[string]any{
			"inflight":   engine.Default().Stats().InFlight,
			"units_done": engine.Default().Stats().UnitsDone,
		},
	}
	if s.store != nil {
		status["store"] = s.store.Stats()
	}
	if s.work != nil {
		status["work"] = s.work.Stats()
	}
	writeJSON(w, http.StatusOK, status)
}

// cacheStatus is a response cache's /v1/status object, read from the
// cache's own counters.
func cacheStatus[K comparable](c *lru[K, []byte], notModified *obs.Counter) map[string]any {
	return map[string]any{
		"enabled":      c.enabled(),
		"entries":      c.len(),
		"hits":         c.hits.Value(),
		"misses":       c.misses.Value(),
		"evictions":    c.evictions.Value(),
		"not_modified": notModified.Value(),
	}
}
