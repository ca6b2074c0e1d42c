package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/synth"
)

// The report tests run the real spec pipeline, so they share one synthetic
// database and one on-disk result store across the whole package run:
// whichever test renders a spec first pays for its units, every later
// render is a store hit. This mirrors production (daemon and CLI sharing
// -cache) and keeps the suite's wall-clock close to one cold all-spec run.
const (
	reportSeed  = 1
	reportDraws = 2
	reportMaxK  = 3
	// cheapSpec is the least expensive registered spec (a handful of
	// family-CV units) — the workhorse for tests that only need *a* report.
	cheapSpec = "table3"
)

var (
	reportDataOnce sync.Once
	reportData     *synth.Data
	reportDataErr  error

	reportDirOnce sync.Once
	reportDir     string
	reportDirErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if reportDir != "" {
		os.RemoveAll(reportDir)
	}
	os.Exit(code)
}

// reportWorld returns the package-shared synthetic database — the very
// dataset dtrankd serves in synth mode with the same seed, which is what
// makes server renders byte-comparable to CLI runs.
func reportWorld(t testing.TB) *synth.Data {
	t.Helper()
	reportDataOnce.Do(func() {
		reportData, reportDataErr = synth.Generate(synth.DefaultOptions(reportSeed))
	})
	if reportDataErr != nil {
		t.Fatal(reportDataErr)
	}
	return reportData
}

// reportStoreDir returns the package-shared result-store directory.
func reportStoreDir(t testing.TB) string {
	t.Helper()
	reportDirOnce.Do(func() {
		reportDir, reportDirErr = os.MkdirTemp("", "dtrank-report-test-")
	})
	if reportDirErr != nil {
		t.Fatal(reportDirErr)
	}
	return reportDir
}

// newReportServer starts a report-capable server over the shared world and
// store with the suite's reduced budget.
func newReportServer(t testing.TB, mutate ...func(*Options)) *Server {
	t.Helper()
	data := reportWorld(t)
	opts := Options{
		Seed:        reportSeed,
		StoreDir:    reportStoreDir(t),
		ReportFast:  true,
		ReportDraws: reportDraws,
		ReportMaxK:  reportMaxK,
	}
	for _, f := range mutate {
		f(&opts)
	}
	srv, err := NewServer(data.Matrix, data.Characteristics, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// getReport issues GET /v1/reports/<spec> with optional headers.
func getReport(t testing.TB, h http.Handler, spec string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/reports/"+spec, nil)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestReportTextMatchesRunSpecs is the tentpole parity pin: for EVERY
// registered spec, the daemon's text/plain body is byte-identical to what
// `dtrank run -spec <id>` prints with the same seed and budget flags. The
// CLI side shares the server's store directory, which doubles as the
// store-interop check: units the server computed are plain `dtrank
// run -cache` units.
func TestReportTextMatchesRunSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every spec; skipped in -short")
	}
	srv := newReportServer(t)
	h := srv.Handler()
	store, err := resultstore.Open(reportStoreDir(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experiments.SpecIDs() {
		rec := getReport(t, h, id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", id, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != reportCTText {
			t.Fatalf("%s: Content-Type %q", id, ct)
		}
		if etag := rec.Header().Get("ETag"); !etagShape.MatchString(etag) {
			t.Fatalf("%s: ETag %q does not match the documented shape", id, etag)
		}
		var cli bytes.Buffer
		cfg := experiments.Config{
			Seed:        reportSeed,
			Fast:        true,
			RandomDraws: reportDraws,
			MaxK:        reportMaxK,
			Store:       store,
		}
		if err := experiments.RunSpecs(cfg, &cli, id); err != nil {
			t.Fatalf("%s: RunSpecs: %v", id, err)
		}
		if !bytes.Equal(rec.Body.Bytes(), cli.Bytes()) {
			t.Errorf("%s: served text differs from `dtrank run` output\nserved:\n%s\ncli:\n%s",
				id, rec.Body.String(), cli.String())
		}
	}
}

// TestGoldenReportJSONBody pins the JSON representation: its key set, its
// provenance fields, and that its text payload is byte-identical to the
// text/plain representation — under a different entity tag, since the two
// bodies are different entities.
func TestGoldenReportJSONBody(t *testing.T) {
	srv := newReportServer(t)
	h := srv.Handler()

	text := getReport(t, h, cheapSpec, nil)
	asJSON := getReport(t, h, cheapSpec, map[string]string{"Accept": "application/json"})
	if text.Code != http.StatusOK || asJSON.Code != http.StatusOK {
		t.Fatalf("HTTP %d / %d", text.Code, asJSON.Code)
	}
	if ct := asJSON.Header().Get("Content-Type"); ct != reportCTJSON {
		t.Fatalf("Content-Type %q", ct)
	}
	wantKeys(t, asJSON.Body.Bytes(), "spec", "title", "snapshot", "dataset", "budget", "seed", "units", "text")

	var rep ReportResponse
	if err := json.Unmarshal(asJSON.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Spec != cheapSpec || rep.Title == "" {
		t.Fatalf("spec %q title %q", rep.Spec, rep.Title)
	}
	if rep.Snapshot != srv.SnapshotHash() {
		t.Fatalf("snapshot %q, want served hash %q", rep.Snapshot, srv.SnapshotHash())
	}
	if rep.Dataset == "" || rep.Dataset == rep.Snapshot {
		t.Fatalf("dataset fingerprint %q (snapshot %q): want a distinct non-empty fingerprint", rep.Dataset, rep.Snapshot)
	}
	if rep.Budget != "fast" || rep.Seed != reportSeed || rep.Units <= 0 {
		t.Fatalf("budget %q seed %d units %d", rep.Budget, rep.Seed, rep.Units)
	}
	if rep.Text != text.Body.String() {
		t.Fatal("JSON text payload differs from the text/plain body")
	}
	et, ej := text.Header().Get("ETag"), asJSON.Header().Get("ETag")
	if !etagShape.MatchString(ej) {
		t.Fatalf("JSON ETag %q does not match the documented shape", ej)
	}
	if et == ej {
		t.Fatalf("text and JSON representations share ETag %q", et)
	}
}

// TestGoldenReportsList pins the catalogue endpoint: key set, one entry
// per registered spec, and resolvable URLs.
func TestGoldenReportsList(t *testing.T) {
	srv := newReportServer(t)
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/reports", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	wantKeys(t, rec.Body.Bytes(), "snapshot", "budget", "seed", "reports")
	var list struct {
		Snapshot string `json:"snapshot"`
		Budget   string `json:"budget"`
		Seed     int64  `json:"seed"`
		Reports  []struct {
			Spec  string `json:"spec"`
			Title string `json:"title"`
			URL   string `json:"url"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	ids := experiments.SpecIDs()
	if len(list.Reports) != len(ids) {
		t.Fatalf("%d reports listed, want %d", len(list.Reports), len(ids))
	}
	if list.Snapshot != srv.SnapshotHash() || list.Budget != "fast" || list.Seed != reportSeed {
		t.Fatalf("snapshot %q budget %q seed %d", list.Snapshot, list.Budget, list.Seed)
	}
	for i, r := range list.Reports {
		if r.Spec != ids[i] || r.Title == "" || r.URL != "/v1/reports/"+ids[i] {
			t.Fatalf("entry %d = %+v, want spec %q", i, r, ids[i])
		}
	}
}

// TestReportUnknownSpec pins the 404 envelope for an unregistered spec.
func TestReportUnknownSpec(t *testing.T) {
	srv := newReportServer(t)
	rec := getReport(t, srv.Handler(), "table999", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", rec.Code)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "not_found" || !strings.Contains(env.Error.Message, "table999") {
		t.Fatalf("envelope %+v", env.Error)
	}
	// The message lists the valid specs, so a typo is self-correcting.
	if !strings.Contains(env.Error.Message, cheapSpec) {
		t.Fatalf("message %q does not list valid specs", env.Error.Message)
	}
}

// TestReportETagRevalidation pins the conditional-request contract: the
// tag has the documented shape and snapshot prefix, a matching
// If-None-Match gets a bodyless 304, and — because the tag is a pure
// function of (snapshot, spec, budget, representation) — a server that has
// NEVER rendered the report answers 304 without planning, executing or
// rendering anything.
func TestReportETagRevalidation(t *testing.T) {
	srv := newReportServer(t)
	h := srv.Handler()

	first := getReport(t, h, cheapSpec, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("HTTP %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if !etagShape.MatchString(etag) {
		t.Fatalf("ETag %q does not match \"<16 hex>-<16 hex>\"", etag)
	}
	if want := srv.SnapshotHash()[:16]; strings.Trim(etag, `"`)[:16] != want {
		t.Fatalf("ETag %q does not start with snapshot prefix %s", etag, want)
	}
	if vary := first.Header().Get("Vary"); vary != "Accept" {
		t.Fatalf("Vary %q, want Accept", vary)
	}

	rev := getReport(t, h, cheapSpec, map[string]string{"If-None-Match": etag})
	if rev.Code != http.StatusNotModified || rev.Body.Len() != 0 {
		t.Fatalf("revalidation got HTTP %d with %d bytes, want bodyless 304", rev.Code, rev.Body.Len())
	}
	if rev.Header().Get("ETag") != etag {
		t.Fatalf("304 ETag %q, want %q", rev.Header().Get("ETag"), etag)
	}
	if nm := srv.reportNotModified.Value(); nm != 1 {
		t.Fatalf("reportcache_not_modified = %d, want 1", nm)
	}
	// A list with other candidates still matches; a stale tag re-serves.
	rev = getReport(t, h, cheapSpec, map[string]string{"If-None-Match": `"zzz", ` + etag})
	if rev.Code != http.StatusNotModified {
		t.Fatalf("list revalidation got HTTP %d, want 304", rev.Code)
	}
	miss := getReport(t, h, cheapSpec, map[string]string{"If-None-Match": `"0000000000000000-0000000000000000"`})
	if miss.Code != http.StatusOK || miss.Body.Len() == 0 {
		t.Fatalf("stale-tag request got HTTP %d with %d bytes, want 200 with body", miss.Code, miss.Body.Len())
	}

	// A fresh server over the same snapshot computes the identical tag and
	// short-circuits to 304 with zero renders — pollers revalidating
	// against a restarted daemon never trigger work.
	cold := newReportServer(t)
	rev = getReport(t, cold.Handler(), cheapSpec, map[string]string{"If-None-Match": etag})
	if rev.Code != http.StatusNotModified || rev.Body.Len() != 0 {
		t.Fatalf("cold-server revalidation got HTTP %d with %d bytes, want bodyless 304", rev.Code, rev.Body.Len())
	}
	if n := cold.reportRenders.Value(); n != 0 {
		t.Fatalf("cold-server revalidation triggered %d renders, want 0", n)
	}
}

// TestReportCacheDisabled pins the ReportCache: -1 escape hatch: every
// response is rendered, carries no validator, and ignores If-None-Match.
func TestReportCacheDisabled(t *testing.T) {
	srv := newReportServer(t, func(o *Options) { o.ReportCache = -1 })
	h := srv.Handler()
	first := getReport(t, h, cheapSpec, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("HTTP %d", first.Code)
	}
	if etag := first.Header().Get("ETag"); etag != "" {
		t.Fatalf("cache disabled but ETag %q served", etag)
	}
	again := getReport(t, h, cheapSpec, map[string]string{"If-None-Match": `"anything"`})
	if again.Code != http.StatusOK || again.Body.Len() == 0 {
		t.Fatalf("HTTP %d with %d bytes, want full 200", again.Code, again.Body.Len())
	}
	if n := srv.reportRenders.Value(); n != 2 {
		t.Fatalf("%d renders, want 2 (no cache to hit)", n)
	}
}

// TestReportRenderCached asserts the warm path: the second identical
// request is a response-cache hit — no render at all, identical bytes.
func TestReportRenderCached(t *testing.T) {
	srv := newReportServer(t)
	h := srv.Handler()
	first := getReport(t, h, cheapSpec, nil)
	second := getReport(t, h, cheapSpec, nil)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("HTTP %d / %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("warm body differs from cold body")
	}
	if n := srv.reportRenders.Value(); n != 1 {
		t.Fatalf("%d renders for two requests, want 1", n)
	}
	if hits := srv.reports.hits.Value(); hits != 1 {
		t.Fatalf("reportcache_hits = %d, want 1", hits)
	}
	// One render materialises BOTH representations, so the JSON request
	// is also a cache hit.
	asJSON := getReport(t, h, cheapSpec, map[string]string{"Accept": "application/json"})
	if asJSON.Code != http.StatusOK {
		t.Fatalf("HTTP %d", asJSON.Code)
	}
	if n := srv.reportRenders.Value(); n != 1 {
		t.Fatalf("JSON representation triggered render %d, want cache hit", n)
	}
}

// TestReportSingleflight hammers one cold report with concurrent pollers
// and asserts exactly one render happened: the leader rendered, everyone
// else either coalesced onto its flight or hit the cache it filled. All
// responses are complete and identical. Run under -race in CI.
func TestReportSingleflight(t *testing.T) {
	srv := newReportServer(t)
	h := srv.Handler()
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := getReport(t, h, cheapSpec, nil)
			if rec.Code == http.StatusOK {
				bodies[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if len(b) == 0 {
			t.Fatalf("request %d failed or returned empty body", i)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	if renders := srv.reportRenders.Value(); renders != 1 {
		t.Fatalf("%d concurrent cold requests rendered %d times, want 1", n, renders)
	}
}

// TestReportCachePurgedOnSnapshotSwap mirrors
// TestRankCachePurgedOnSnapshotSwap for the report cache: a hot-swap
// empties it in the same critical section and changes every report's
// entity tag, so stale bodies and stale 304s are both impossible.
func TestReportCachePurgedOnSnapshotSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("renders against a mutated snapshot; skipped in -short")
	}
	srv := newReportServer(t)
	h := srv.Handler()
	first := getReport(t, h, cheapSpec, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("HTTP %d", first.Code)
	}
	// One render caches both representations.
	if n := srv.reports.len(); n != 2 {
		t.Fatalf("report cache holds %d entries, want 2", n)
	}

	// A private copy of the world (the shared one must stay pristine).
	data, err := synth.Generate(synth.DefaultOptions(reportSeed))
	if err != nil {
		t.Fatal(err)
	}
	next := data.Matrix
	next.Set(0, 0, next.At(0, 0)*2) // different data, different hash
	if _, err := srv.SwapSnapshot(next, data.Characteristics); err != nil {
		t.Fatal(err)
	}
	if n := srv.reports.len(); n != 0 {
		t.Fatalf("report cache holds %d entries after swap, want 0", n)
	}
	second := getReport(t, h, cheapSpec, map[string]string{"If-None-Match": first.Header().Get("ETag")})
	if second.Code != http.StatusOK {
		t.Fatalf("post-swap revalidation got HTTP %d, want 200 (data changed)", second.Code)
	}
	if second.Header().Get("ETag") == first.Header().Get("ETag") {
		t.Fatal("report ETag unchanged across snapshot swap")
	}
	if bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("swap served stale report bytes")
	}
}

// TestReportWarmStoreComputesNothing is the incremental-computation pin: a
// fresh server (empty response cache) whose result store already holds
// every unit of a spec renders it without computing anything — the render
// is pure store reads.
func TestReportWarmStoreComputesNothing(t *testing.T) {
	warm := newReportServer(t)
	if rec := getReport(t, warm.Handler(), cheapSpec, nil); rec.Code != http.StatusOK {
		t.Fatalf("warming render: HTTP %d", rec.Code)
	}

	fresh := newReportServer(t)
	rec := getReport(t, fresh.Handler(), cheapSpec, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	if computed := fresh.reportUnitsComputed.Value(); computed != 0 {
		t.Fatalf("fresh server recomputed %d units against a warm store, want 0", computed)
	}
	if hits := fresh.reportUnitsHit.Value(); hits <= 0 {
		t.Fatalf("fresh server read %d units from the store, want > 0", hits)
	}
	if renders := fresh.reportRenders.Value(); renders != 1 {
		t.Fatalf("%d renders, want 1", renders)
	}
}
