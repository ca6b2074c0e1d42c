package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/coord"
	"repro/internal/dataset"
	"repro/internal/method"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/transpose"
)

// Options configures a Server.
type Options struct {
	// Seed is the deterministic seeding base for predictors, matching
	// cmd/dtrank's -seed flag (MLPᵀ uses Seed+1, GA-kNN Seed+2).
	Seed int64
	// MaxModels bounds the model registry (0 means DefaultMaxModels).
	MaxModels int
	// StoreDir, when set, serves the experiment result store under this
	// directory on /v1/store/ (dtrankd's -cache flag): sharded `dtrank
	// run -shard -cache http://...` processes merge their units through
	// the daemon, and the directory stays interchangeable with a local
	// `-cache dir` store.
	StoreDir string
	// Coordinator, when set, serves the lease-based work-stealing
	// protocol under /v1/work/ (dtrankd's -coordinate flag): `dtrank run
	// -worker http://...` processes lease unit batches, heartbeat and
	// complete them into the shared store, and expired leases return to
	// the queue.
	Coordinator *coord.Coordinator
	// RankCache bounds the rendered-response cache in entries (dtrankd's
	// -rank-cache flag): a bounded LRU of fully encoded /v1/rank bodies
	// keyed by (snapshot hash, query shape), purged wholesale on snapshot
	// hot-swap. 0 means DefaultRankCacheSize; negative disables the
	// cache (every request computes).
	RankCache int
	// ReportCache bounds the rendered-report cache in entries (dtrankd's
	// -report-cache flag): a bounded LRU of fully rendered
	// /v1/reports/{spec} bodies — one entry per (snapshot, spec, budget,
	// representation) — purged on snapshot hot-swap in the same critical
	// section as the rank cache. 0 means DefaultReportCacheSize; negative
	// disables the cache and report ETag/304 revalidation (every request
	// renders).
	ReportCache int
	// ReportFast, ReportDraws and ReportMaxK set the report pipeline's
	// training budget (dtrankd's -fast, -draws and -maxk flags). They
	// must match the flags of any `dtrank run` sharing StoreDir: budget
	// is part of every unit key, and parity with the CLI render holds
	// per budget.
	ReportFast  bool
	ReportDraws int
	ReportMaxK  int
	// Obs is the metrics registry every handler, cache, coalescer, fit
	// and store instrument registers into, rendered on GET /metrics and
	// snapshotted by GET /v1/status (dtrankd shares one registry across
	// subsystems). nil means a private registry — the endpoints still
	// work, they just expose only this server's series.
	Obs *obs.Registry
	// Logger receives one structured access line per request, each
	// carrying the request's trace ID, plus debug lines from the cache,
	// fit and render sites. nil logs nothing, which keeps tests and
	// benchmarks quiet and unmeasured.
	Logger *slog.Logger
}

// snapshot is an immutable (matrix, characteristics) pair plus its hash.
// The server swaps whole snapshots atomically; in-flight queries keep the
// one they started with.
type snapshot struct {
	matrix *dataset.Matrix
	chars  map[string][]float64
	hash   string
}

// freshScorer is the serving interface of application-independent models:
// NNTModel and SPLTModel extrapolate any application from fresh
// measurements on the predictive machines.
type freshScorer interface {
	PredictTargetsWith(appOnPred, dst []float64) error
}

// callKey identifies a coalescable prediction: the model key plus, for
// the fresh-scores path, the exact measurement bytes (not a hash — two
// different score vectors must never share a call). Top is not part of
// it: queries differing only in their clamp share one PredictTargets and
// each caller clamps its own response.
type callKey struct {
	key    Key
	scores string
}

// prediction is the shared, read-only result of one coalesced ranking
// computation: the predicted target scores and, on the app-named path,
// the held-out benchmark's measured ones.
type prediction struct {
	predicted, measured []float64
}

// Server is the ranking service: a snapshot of the performance database,
// a model registry fitting each query shape once, and the HTTP handlers
// in front of them.
type Server struct {
	opts    Options
	reg     *Registry
	snap    atomic.Pointer[snapshot]
	cache   *lru[shapeKey, []byte]  // disabled when Options.RankCache < 0
	reports *lru[reportKey, []byte] // disabled when Options.ReportCache < 0
	ranks   *flight[callKey, prediction]
	renders *flight[reportKey, rendered]
	rstore  resultstore.Store
	store   *resultstore.HTTPHandler
	work    *coord.HTTPHandler
	start   time.Time

	obs        *obs.Registry
	logger     *slog.Logger
	logging    bool // false when no Options.Logger: skip per-request log plumbing
	epm        map[string]*endpointMetrics
	fitHist    map[string]*obs.Histogram
	reportHist map[string]*obs.Histogram

	// The server's own counters, registered once in registerMetrics and
	// read by both /metrics and /v1/status.
	requests, rankOK, rankErrors, swaps *obs.Counter
	rankNotModified, reportNotModified  *obs.Counter
	reportRenders, reportErrors         *obs.Counter
	reportUnitsComputed, reportUnitsHit *obs.Counter

	baseCtx context.Context
	cancel  context.CancelFunc

	// swapMu serialises snapshot hot-swaps: the snapshot store, registry
	// eviction and both response-cache purges of one swap form a single
	// critical section, so two racing swaps can never interleave into a
	// state where a cache still holds bodies of an evicted snapshot.
	swapMu sync.Mutex
}

// NewServer builds a Server over the given performance matrix and optional
// workload characteristics (required only by GA-kNN queries).
func NewServer(m *dataset.Matrix, chars map[string][]float64, opts Options) (*Server, error) {
	if m == nil {
		return nil, errors.New("serve: nil matrix")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid snapshot: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts:    opts,
		reg:     newRegistry(opts.MaxModels, reg),
		cache:   newLRU[shapeKey, []byte](orDefault(opts.RankCache, DefaultRankCacheSize), reg, "dtrank_rankcache"),
		reports: newLRU[reportKey, []byte](orDefault(opts.ReportCache, DefaultReportCacheSize), reg, "dtrank_reportcache"),
		ranks:   newFlight[callKey, prediction](ctx, reg.Counter("dtrank_coalesced_total")),
		renders: newFlight[reportKey, rendered](ctx, reg.Counter("dtrank_report_coalesced_total")),
		start:   time.Now(),
		baseCtx: ctx,
		cancel:  cancel,
		obs:     reg,
		logger:  obs.OrNop(opts.Logger),
		logging: opts.Logger != nil,
	}
	if opts.StoreDir != "" {
		h, err := resultstore.NewHTTPHandler(opts.StoreDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("serve: result store: %w", err)
		}
		s.store = h
		// Report renders read and write the same directory /v1/store/
		// serves: units a worker merged through the daemon feed reports,
		// units a report computed feed `dtrank run -cache dir`. The store
		// is content-addressed and CRC-checked, so the two access paths
		// interoperate safely.
		rst, err := resultstore.Open(opts.StoreDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("serve: report store: %w", err)
		}
		s.rstore = rst
	} else {
		// No configured directory: reports still serve, cached in memory
		// across renders for the process lifetime.
		s.rstore = resultstore.New()
	}
	if opts.Coordinator != nil {
		s.work = coord.NewHTTPHandler(opts.Coordinator)
	}
	s.snap.Store(&snapshot{matrix: m, chars: chars, hash: m.Hash()})
	s.registerMetrics(reg)
	return s, nil
}

// orDefault maps a zero cache bound to its default; negative bounds stay
// negative, which disables the cache.
func orDefault(n, def int) int {
	if n == 0 {
		return def
	}
	return n
}

// Registry exposes the server's model registry (for warm start and save).
func (s *Server) Registry() *Registry { return s.reg }

// Obs exposes the server's metrics registry — the one GET /metrics
// renders — so the daemon can register its own series (or a debug
// listener can mount a second exposition handler) without a global.
func (s *Server) Obs() *obs.Registry { return s.obs }

// SnapshotHash returns the hash of the currently served snapshot.
func (s *Server) SnapshotHash() string { return s.snap.Load().hash }

// Close cancels the server's base context: requests waiting on a
// coalesced ranking, report or model fit unblock with a cancellation
// error, and fits not yet started never start. It does not stop an
// http.Server wrapping Handler() — shut that down first.
func (s *Server) Close() { s.cancel() }

// SwapSnapshot atomically replaces the served dataset. Queries already
// running finish against the old snapshot; new queries see the new one.
// Models fitted against replaced snapshots are evicted from the registry
// eagerly (their keys can never match a query again, so keeping them only
// pins memory) and the rendered-response cache is purged wholesale.
// Characteristics may be nil, in which case GA-kNN queries against the
// new snapshot are rejected.
func (s *Server) SwapSnapshot(m *dataset.Matrix, chars map[string][]float64) (string, error) {
	if m == nil {
		return "", errors.New("serve: nil matrix")
	}
	if err := m.Validate(); err != nil {
		return "", fmt.Errorf("serve: invalid snapshot: %w", err)
	}
	next := &snapshot{matrix: m, chars: chars, hash: m.Hash()}
	// One critical section for the whole swap: the snapshot pointer, the
	// registry eviction and both response-cache purges land together, so
	// a concurrent swap cannot interleave and leave a cache holding
	// bodies rendered against an already-evicted snapshot.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.snap.Store(next)
	s.reg.EvictSnapshotsExcept(next.hash)
	s.cache.purge()
	s.reports.purge()
	s.swaps.Inc()
	return next.hash, nil
}

// RankRequest is the body of POST /v1/rank. Exactly one of App (a
// benchmark held out as the application of interest, the cmd/dtrank parity
// path) or Scores (the application's measured scores on the predictive
// machines, ordered as GET /v1/machines?family=F&role=predictive lists
// them) must be set.
type RankRequest struct {
	Family string    `json:"family"`
	Method string    `json:"method"`
	App    string    `json:"app,omitempty"`
	Scores []float64 `json:"scores,omitempty"`
	Top    int       `json:"top,omitempty"`
}

// RankEntry is one machine of a predicted ranking, best first.
type RankEntry struct {
	Rank      int     `json:"rank"`
	Machine   string  `json:"machine"`
	Predicted float64 `json:"predicted"`
	// Measured is the ground-truth score, present only on the app-named
	// path where the held-out benchmark's scores are known.
	Measured *float64 `json:"measured,omitempty"`
}

// RankResponse is the body of a successful POST /v1/rank — and, byte for
// byte, of `dtrank rank -json`: both paths fill it from the same
// deterministic fit, which is what the serve-smoke CI job asserts.
type RankResponse struct {
	Family   string             `json:"family"`
	App      string             `json:"app,omitempty"`
	Method   string             `json:"method"`
	Snapshot string             `json:"snapshot"`
	Metrics  *transpose.Metrics `json:"metrics,omitempty"`
	Ranking  []RankEntry        `json:"ranking"`
}

// WriteRankResponse encodes resp as JSON followed by a newline — the one
// serialization shared by the HTTP handler and `dtrank rank -json`, so
// their outputs can be compared bytewise.
func WriteRankResponse(w io.Writer, resp *RankResponse) error {
	return json.NewEncoder(w).Encode(resp)
}

// BuildRankResponse assembles a response from raw prediction output: it
// orders targets by predicted score (best first), attaches measured
// scores when available, computes the paper's metrics, and clamps the
// ranking to top entries (top <= 0 means all).
func BuildRankResponse(family, app, method, snapshotHash string, machines []dataset.Machine, predicted, measured []float64, top int) (*RankResponse, error) {
	if len(predicted) != len(machines) {
		return nil, fmt.Errorf("serve: %d predictions for %d machines", len(predicted), len(machines))
	}
	resp := &RankResponse{Family: family, App: app, Method: method, Snapshot: snapshotHash}
	if measured != nil {
		if len(measured) != len(predicted) {
			return nil, fmt.Errorf("serve: %d measured scores for %d predictions", len(measured), len(predicted))
		}
		m, err := transpose.Evaluate(measured, predicted)
		if err != nil {
			return nil, err
		}
		resp.Metrics = &m
	}
	order := transpose.Ranking(predicted)
	if top <= 0 || top > len(order) {
		top = len(order)
	}
	resp.Ranking = make([]RankEntry, top)
	for i := 0; i < top; i++ {
		t := order[i]
		e := RankEntry{Rank: i + 1, Machine: machines[t].ID, Predicted: predicted[t]}
		if measured != nil {
			v := measured[t]
			e.Measured = &v
		}
		resp.Ranking[i] = e
	}
	return resp, nil
}

// httpError is an error with a status code.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// Rank answers one ranking query against the current snapshot. It is the
// HTTP-independent entry point the handler, tests and examples share.
func (s *Server) Rank(ctx context.Context, req RankRequest) (*RankResponse, error) {
	canon, err := CanonicalMethod(req.Method)
	if err != nil {
		return nil, &httpError{code: http.StatusBadRequest, err: err}
	}
	if req.Family == "" {
		return nil, badRequest("missing family")
	}
	if (req.App == "") == (len(req.Scores) == 0) {
		return nil, badRequest("exactly one of app or scores must be set")
	}
	snap := s.snap.Load()
	targets, predictive, err := snap.matrix.FamilySplit(req.Family)
	if err != nil {
		return nil, &httpError{code: http.StatusBadRequest, err: err}
	}

	key := Key{Snapshot: snap.hash, Family: req.Family, App: req.App, Method: canon, Seed: s.opts.Seed}
	ck := callKey{key: key}
	if len(req.Scores) > 0 {
		if !SupportsFreshScores(canon) {
			return nil, badRequest("method %s cannot rank from raw scores (its fit depends on the application); supply app instead", canon)
		}
		if len(req.Scores) != predictive.NumMachines() {
			return nil, badRequest("got %d scores for %d predictive machines", len(req.Scores), predictive.NumMachines())
		}
		b := make([]byte, 8*len(req.Scores))
		for i, v := range req.Scores {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, badRequest("invalid score %v (scores must be finite and positive)", v)
			}
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
		}
		ck.scores = string(b)
	}
	// A request whose client already left starts no work.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Coalesce: concurrent queries for one model and one score vector —
	// whatever their top clamps — share one fit and one PredictTargets.
	p, err := s.ranks.do(ctx, ck, func() (prediction, error) {
		return s.predict(ctx, snap, key, canon, targets, predictive, req)
	})
	if err != nil {
		return nil, err
	}
	return BuildRankResponse(req.Family, req.App, canon, snap.hash, targets.Machines, p.predicted, p.measured, req.Top)
}

// predict performs the fit-and-predict of one coalesced ranking flight
// under the server's lifetime; ctx only labels its log lines.
func (s *Server) predict(ctx context.Context, snap *snapshot, key Key, canon string, targets, predictive *dataset.Matrix, req RankRequest) (prediction, error) {
	var (
		appOnTgt []float64
		fold     transpose.Fold
	)
	if req.App != "" {
		var err error
		fold, appOnTgt, err = transpose.NewFold(predictive, targets, req.App, snap.chars)
		if err != nil {
			return prediction{}, &httpError{code: http.StatusBadRequest, err: err}
		}
	} else {
		const freshApp = "application-of-interest"
		if _, err := predictive.BenchmarkIndex(freshApp); err == nil {
			return prediction{}, badRequest("snapshot contains a benchmark named %q; rank it via app instead", freshApp)
		}
		fold = transpose.Fold{
			AppName:   freshApp,
			Pred:      predictive,
			AppOnPred: req.Scores,
			Tgt:       targets,
		}
		if err := fold.Validate(); err != nil {
			return prediction{}, badRequest("invalid fold: %v", err)
		}
	}

	fit := func() (transpose.Model, error) {
		p, _, err := NewPredictor(canon, s.opts.Seed)
		if err != nil {
			return nil, err
		}
		ft, ok := p.(transpose.Fitter)
		if !ok {
			return nil, fmt.Errorf("serve: method %s does not implement the Fit/Predict API", canon)
		}
		t0 := time.Now()
		m, err := ft.Fit(fold)
		d := time.Since(t0)
		s.fitHist[canon].Observe(d)
		s.logger.Debug("model fit", "trace", obs.TraceID(ctx), "method", canon, "app", fold.AppName, "dur", d, "ok", err == nil)
		return m, err
	}
	predicted := make([]float64, targets.NumMachines())
	err := s.reg.Query(s.baseCtx, key, fit, func(m transpose.Model) error {
		if m.NumTargets() != len(predicted) {
			return fmt.Errorf("serve: model predicts %d targets, snapshot family has %d machines", m.NumTargets(), len(predicted))
		}
		if len(req.Scores) > 0 {
			fs, ok := m.(freshScorer)
			if !ok {
				return fmt.Errorf("serve: %s model cannot predict from raw scores", canon)
			}
			return fs.PredictTargetsWith(req.Scores, predicted)
		}
		return m.PredictTargets(predicted)
	})
	if err != nil {
		return prediction{}, err
	}
	return prediction{predicted: predicted, measured: appOnTgt}, nil
}

// Handler returns the server's HTTP API:
//
//	POST /v1/rank            rank a family's machines for an application
//	GET  /v1/methods         the served prediction methods
//	GET  /v1/machines        the snapshot's machines (?family= filters)
//	POST /v1/snapshot        hot-swap the performance database (CSV body)
//	GET  /v1/reports         the renderable experiment specs
//	GET  /v1/reports/{spec}  the spec rendered against the current snapshot
//	                         (text/plain byte-identical to `dtrank run`,
//	                         application/json via Accept; ETag + 304)
//	GET  /v1/status          JSON observability snapshot (per-endpoint p50/p95/p99)
//	GET  /healthz            liveness plus snapshot hash and model count
//	GET  /metrics            Prometheus text exposition of the obs registry
//
// Every route runs under the observability middleware: the response
// carries an X-Dtrank-Trace header (adopted from a valid inbound header,
// otherwise generated), latency and status land in per-route metrics, and
// one structured access line goes to Options.Logger.
//
// With Options.StoreDir set, the experiment result store is additionally
// served under /v1/store/ (GET/PUT one CRC-checked entry per unit, GET
// the collection for a listing) — the merge point of `dtrank run -shard
// -cache http://host:port` processes. With Options.Coordinator set, the
// work-stealing protocol is served under /v1/work/ (POST lease /
// heartbeat / complete, GET status) — the control plane of `dtrank run
// -worker http://host:port` processes.
//
// Every error response of every /v1 endpoint uses the unified envelope
// {"error":{"code":...,"message":...}} documented in API.md.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.Handler) {
		mux.Handle(pattern, s.instrument(route, h))
	}
	handle("POST /v1/rank", "/v1/rank", http.HandlerFunc(s.handleRank))
	handle("GET /v1/methods", "/v1/methods", http.HandlerFunc(s.handleMethods))
	handle("GET /v1/machines", "/v1/machines", http.HandlerFunc(s.handleMachines))
	handle("POST /v1/snapshot", "/v1/snapshot", http.HandlerFunc(s.handleSnapshot))
	handle("GET /v1/reports", "/v1/reports", http.HandlerFunc(s.handleReports))
	handle("GET /v1/reports/{spec}", "/v1/reports/", http.HandlerFunc(s.handleReport))
	handle("GET /v1/status", "/v1/status", http.HandlerFunc(s.handleStatus))
	handle("GET /healthz", "/healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /metrics", "/metrics", s.obs.Handler())
	if s.store != nil {
		handle("/v1/store/", "/v1/store/", s.store)
	}
	if s.work != nil {
		handle("/v1/work/", "/v1/work/", s.work)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes err in the unified /v1 error envelope, deriving the
// HTTP status from the error's type (httpError carries one; cancellation
// maps to 503; anything else is a 500).
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		code = http.StatusServiceUnavailable
	}
	api.WriteError(w, code, "", "%v", err)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.rankErrors.Inc()
		s.writeError(w, badRequest("decoding request: %v", err))
		return
	}
	// The cache keys on the decoded, canonicalised query — method aliases,
	// JSON field order and explicitly-default fields all collapse onto one
	// shape — under the served snapshot's hash. A hit skips fit, predict
	// and JSON encoding. Requests whose method does not resolve skip the
	// lookup and fail in Rank with the full error message.
	var (
		shape, snapHash string
		body            []byte
		hit             bool
	)
	if s.cache.enabled() {
		if canon, err := CanonicalMethod(req.Method); err == nil {
			shape = queryShape(canon, req)
			snapHash = s.snap.Load().hash
			body, hit = s.cache.get(shapeKey{snapshot: snapHash, shape: shape})
			if s.logging && s.logger.Enabled(r.Context(), slog.LevelDebug) {
				s.logger.Debug("rankcache", "trace", obs.TraceID(r.Context()), "hit", hit, "shape", clip16(shape))
			}
		}
	}
	if !hit {
		resp, err := s.Rank(r.Context(), req)
		if err != nil {
			s.rankErrors.Inc()
			s.writeError(w, err)
			return
		}
		var buf bytes.Buffer
		if err := WriteRankResponse(&buf, resp); err != nil {
			s.writeError(w, err)
			return
		}
		body = buf.Bytes()
		// Key and tag under the snapshot the response was computed against
		// (a hot-swap may have landed since the lookup above).
		snapHash = resp.Snapshot
		if shape != "" {
			s.cache.put(shapeKey{snapshot: snapHash, shape: shape}, body)
		}
	}
	s.rankOK.Inc()
	// Revalidation is answered after the cache lookup, so a matching
	// If-None-Match counts as a cache hit (or, on a miss, was computed).
	etag := ""
	if shape != "" {
		etag = etagFor(snapHash, shape)
	}
	writeTagged(w, r, etag, s.rankNotModified, "application/json", func() ([]byte, error) { return body, nil })
}

func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	// The response is generated straight from the method registry, so the
	// server can never advertise a method set that differs from the CLI's
	// `dtrank methods`.
	writeJSON(w, http.StatusOK, map[string]any{"methods": method.List()})
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	family := r.URL.Query().Get("family")
	role := r.URL.Query().Get("role")
	// With ?family=F, ?role=target lists F's machines and ?role=predictive
	// everything else — the split a /v1/rank query for F uses, in the
	// exact order a fresh-scores request's Scores must follow.
	switch role {
	case "", "target", "predictive":
	default:
		s.writeError(w, badRequest("unknown role %q (valid: target, predictive)", role))
		return
	}
	if role != "" && family == "" {
		s.writeError(w, badRequest("role=%s requires family", role))
		return
	}
	if family != "" {
		if _, _, err := snap.matrix.FamilySplit(family); err != nil {
			s.writeError(w, badRequest("%v", err))
			return
		}
	}
	keep := func(m dataset.Machine) bool {
		switch role {
		case "predictive":
			return m.Family != family
		case "target":
			return m.Family == family
		default:
			return family == "" || m.Family == family
		}
	}
	type machine struct {
		ID       string `json:"id"`
		Vendor   string `json:"vendor,omitempty"`
		Family   string `json:"family"`
		Nickname string `json:"nickname,omitempty"`
		ISA      string `json:"isa,omitempty"`
		Year     int    `json:"year,omitempty"`
	}
	var out []machine
	for _, m := range snap.matrix.Machines {
		if !keep(m) {
			continue
		}
		out = append(out, machine{ID: m.ID, Vendor: m.Vendor, Family: m.Family, Nickname: m.Nickname, ISA: m.ISA, Year: m.Year})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot":   snap.hash,
		"benchmarks": snap.matrix.Benchmarks,
		"machines":   out,
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	const maxCSV = 64 << 20
	m, err := dataset.ReadCSV(io.LimitReader(r.Body, maxCSV))
	if err != nil {
		s.writeError(w, badRequest("parsing snapshot CSV: %v", err))
		return
	}
	hash, err := s.SwapSnapshot(m, nil)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot":   hash,
		"benchmarks": m.NumBenchmarks(),
		"machines":   m.NumMachines(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"snapshot":       s.snap.Load().hash,
		"models":         s.reg.Len(),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
	})
}
