package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/resultstore"
)

// These golden tests pin the /v1 wire contract documented in API.md: the
// exact bodies where the contract is a literal (the method registry, the
// error envelope) and the exact key sets where values vary per run (rank
// responses, work-protocol bodies). A failure here means a change to the
// public API — update API.md in the same commit or revert the change.

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// jsonKeys returns the sorted top-level keys of a JSON object.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, data)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, data []byte, want ...string) {
	t.Helper()
	got := jsonKeys(t, data)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("key set %v, want %v\nbody: %s", got, want, data)
	}
}

// TestGoldenMethodsBody pins the full GET /v1/methods body: the method
// registry is part of the public contract (names, aliases, seed offsets,
// capability flags), shared byte-for-byte with `dtrank methods -json`.
func TestGoldenMethodsBody(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := get(t, srv.Handler(), "/v1/methods")
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	const golden = `{"methods":[` +
		`{"name":"NN^T","aliases":["nnt"],"seed_offset":0,"codec_kind":"nnt","fresh_scores":true,"needs_characteristics":false,"compared":true,"stochastic":false},` +
		`{"name":"MLP^T","aliases":["mlpt"],"seed_offset":1,"codec_kind":"mlpt","fresh_scores":false,"needs_characteristics":false,"compared":true,"stochastic":true},` +
		`{"name":"SPL^T","aliases":["splt"],"seed_offset":0,"codec_kind":"splt","fresh_scores":true,"needs_characteristics":false,"compared":false,"stochastic":false},` +
		`{"name":"GA-kNN","aliases":["gaknn"],"seed_offset":2,"codec_kind":"gaknn","fresh_scores":false,"needs_characteristics":true,"compared":true,"stochastic":true},` +
		`{"name":"kNN^M","aliases":["knnm","knn"],"seed_offset":0,"codec_kind":"knnm","fresh_scores":true,"needs_characteristics":false,"compared":false,"stochastic":false}` +
		`]}` + "\n"
	if rec.Body.String() != golden {
		t.Fatalf("GET /v1/methods body changed:\ngot:  %s\nwant: %s", rec.Body.String(), golden)
	}
}

// TestGoldenErrorEnvelope pins the exact error-envelope literal on each
// endpoint family: ranking, store and work errors all share one shape.
func TestGoldenErrorEnvelope(t *testing.T) {
	co, err := coord.New("fp", []resultstore.Key{{Snapshot: "s", Spec: "sp", Method: "m", Split: "x"}}, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1, StoreDir: t.TempDir(), Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	cases := []struct {
		name, method, path, body string
		status                   int
		golden                   string
	}{
		{
			name: "rank missing family", method: http.MethodPost, path: "/v1/rank", body: `{"method":"NN^T"}`,
			status: http.StatusBadRequest,
			golden: `{"error":{"code":"bad_request","message":"missing family"}}` + "\n",
		},
		{
			name: "store entry miss", method: http.MethodGet,
			path:   "/v1/store/0123456789abcdef0123456789abcdef01234567",
			status: http.StatusNotFound,
			golden: `{"error":{"code":"not_found","message":"no such entry"}}` + "\n",
		},
		{
			name: "work expired lease", method: http.MethodPost, path: "/v1/work/heartbeat",
			body:   `{"lease":"nope"}`,
			status: http.StatusNotFound,
			golden: `{"error":{"code":"not_found","message":"coord: unknown or expired lease \"nope\""}}` + "\n",
		},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Fatalf("%s: HTTP %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
		if rec.Body.String() != tc.golden {
			t.Fatalf("%s: envelope changed:\ngot:  %s\nwant: %s", tc.name, rec.Body.String(), tc.golden)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", tc.name, ct)
		}
	}
}

// TestGoldenRankBodyKeys pins the key sets of POST /v1/rank: the response
// object and its ranking entries. Values vary with the dataset; the shape
// is the contract.
func TestGoldenRankBodyKeys(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := post(t, srv.Handler(), "/v1/rank", `{"family":"Alpha","app":"benchB","method":"NN^T"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	wantKeys(t, rec.Body.Bytes(), "family", "app", "method", "snapshot", "metrics", "ranking")
	var resp struct {
		Ranking []json.RawMessage `json:"ranking"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Ranking) == 0 {
		t.Fatal("empty ranking")
	}
	wantKeys(t, resp.Ranking[0], "rank", "machine", "predicted", "measured")
}

// TestGoldenRankHeaders pins the caching headers of POST /v1/rank: the
// entity-tag format ("<16 hex of snapshot hash>-<16 hex of query-shape
// digest>", a quoted strong validator), its stability across requests,
// and the bodyless 304 answer to a matching If-None-Match.
func TestGoldenRankHeaders(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	const body = `{"family":"Alpha","app":"benchB","method":"NN^T"}`

	rec := post(t, h, "/v1/rank", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if !etagShape.MatchString(etag) {
		t.Fatalf("ETag %q does not match the documented \"<16 hex>-<16 hex>\" format", etag)
	}
	if got := strings.Trim(etag, `"`)[:16]; got != srv.SnapshotHash()[:16] {
		t.Fatalf("ETag snapshot prefix %q, want %q", got, srv.SnapshotHash()[:16])
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if again := post(t, h, "/v1/rank", body); again.Header().Get("ETag") != etag {
		t.Fatalf("ETag unstable across identical requests: %q then %q", etag, again.Header().Get("ETag"))
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader(body))
	req.Header.Set("If-None-Match", etag)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match: HTTP %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("304 carried a %d-byte body", rec.Body.Len())
	}
	if rec.Header().Get("ETag") != etag {
		t.Fatalf("304 ETag %q, want %q", rec.Header().Get("ETag"), etag)
	}
}

// TestGoldenWorkBodyKeys pins the key sets of the /v1/work protocol
// bodies: lease grants, heartbeat acks, complete results and the status
// snapshot.
func TestGoldenWorkBodyKeys(t *testing.T) {
	keys := []resultstore.Key{
		{Snapshot: "s", Spec: "a", Method: "m", Split: "x", Seed: 1},
		{Snapshot: "s", Spec: "b", Method: "m", Split: "x", Seed: 1},
	}
	co, err := coord.New("fp", keys, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1, Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	rec := post(t, h, "/v1/work/lease", `{"worker":"w"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("lease: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	wantKeys(t, rec.Body.Bytes(), "lease", "trace", "units", "ttl_ms", "plan", "done", "remaining")
	var grant struct {
		Lease string            `json:"lease"`
		Trace string            `json:"trace"`
		Units []json.RawMessage `json:"units"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Units) == 0 {
		t.Fatal("no units granted")
	}
	if !obs.ValidTraceID(grant.Trace) {
		t.Fatalf("grant trace %q is not a valid trace ID", grant.Trace)
	}
	// A unit travels as its result-store key.
	wantKeys(t, grant.Units[0], "snapshot", "spec", "method", "split", "seed")

	rec = post(t, h, "/v1/work/heartbeat", `{"lease":"`+grant.Lease+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	wantKeys(t, rec.Body.Bytes(), "ttl_ms")

	unit, err := json.Marshal(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	rec = post(t, h, "/v1/work/complete", `{"lease":"`+grant.Lease+`","units":[`+string(unit)+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("complete: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	wantKeys(t, rec.Body.Bytes(), "completed", "duplicates", "done")

	rec = get(t, h, "/v1/work/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	wantKeys(t, rec.Body.Bytes(),
		"plan", "total", "done", "leased", "pending", "active_leases",
		"leases_granted", "leases_expired", "units_recovered", "units_completed",
		"duplicate_completions", "late_completions", "heartbeats", "ewma_unit_ms")

	// Lease the last pending unit so the next caller finds everything
	// held: an empty non-done grant adds retry_ms and drops lease/units.
	rec = post(t, h, "/v1/work/lease", `{"worker":"w"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("draining lease: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	rec = post(t, h, "/v1/work/lease", `{"worker":"w2"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("second lease: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	wantKeys(t, rec.Body.Bytes(), "ttl_ms", "plan", "done", "remaining", "retry_ms")

	// Check the lease body against the rendered grant via round-trip:
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"done":false`)) {
		t.Fatalf("empty grant reads done: %s", rec.Body.String())
	}
}

// TestGoldenStatusBodyKeys pins the key sets of GET /v1/status: the
// top-level snapshot, one endpoint row, and the nested subsystem objects.
// Values vary per run; the shape is the contract documented in API.md.
func TestGoldenStatusBodyKeys(t *testing.T) {
	co, err := coord.New("fp", []resultstore.Key{{Snapshot: "s", Spec: "a", Method: "m", Split: "x", Seed: 1}}, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1, StoreDir: t.TempDir(), Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	// Serve one ranking first so /v1/rank has a non-empty histogram.
	if rec := post(t, h, "/v1/rank", `{"family":"Alpha","app":"benchB","method":"NN^T"}`); rec.Code != http.StatusOK {
		t.Fatalf("rank: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	rec := get(t, h, "/v1/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	wantKeys(t, rec.Body.Bytes(),
		"uptime_seconds", "snapshot", "models", "endpoints", "fits",
		"registry", "rankcache", "reports", "engine", "store", "work")

	var status struct {
		Endpoints map[string]json.RawMessage `json:"endpoints"`
		Fits      map[string]json.RawMessage `json:"fits"`
		Rankcache json.RawMessage            `json:"rankcache"`
		Reports   json.RawMessage            `json:"reports"`
		Engine    json.RawMessage            `json:"engine"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	row, ok := status.Endpoints["/v1/rank"]
	if !ok {
		t.Fatalf("endpoints lacks /v1/rank: %v", status.Endpoints)
	}
	wantKeys(t, row, "count", "errors", "mean_ns", "p50_ns", "p95_ns", "p99_ns")
	var rank struct {
		Count int64 `json:"count"`
		P99Ns int64 `json:"p99_ns"`
	}
	if err := json.Unmarshal(row, &rank); err != nil {
		t.Fatal(err)
	}
	if rank.Count < 1 || rank.P99Ns <= 0 {
		t.Fatalf("/v1/rank row not populated: %s", row)
	}
	wantKeys(t, status.Rankcache, "enabled", "entries", "hits", "misses", "evictions", "not_modified")
	wantKeys(t, status.Reports, "cache_enabled", "entries", "hits", "misses", "evictions",
		"not_modified", "renders", "errors", "coalesced", "units_computed", "units_hit")
	wantKeys(t, status.Engine, "inflight", "units_done")

	// The ranking above fitted an NN^T model, so its fit histogram must be
	// populated; every registered method gets a row either way.
	fitRow, ok := status.Fits["NN^T"]
	if !ok {
		t.Fatalf("fits lacks NN^T: %v", status.Fits)
	}
	wantKeys(t, fitRow, "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns")
	var fit struct {
		Count int64 `json:"count"`
		P99Ns int64 `json:"p99_ns"`
	}
	if err := json.Unmarshal(fitRow, &fit); err != nil {
		t.Fatal(err)
	}
	if fit.Count < 1 || fit.P99Ns <= 0 {
		t.Fatalf("NN^T fit row not populated: %s", fitRow)
	}
}
