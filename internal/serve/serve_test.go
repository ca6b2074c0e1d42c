package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/method"
	"repro/internal/synth"
	"repro/internal/transpose"
)

// libraryRank computes a ranking the way cmd/dtrank and the library API
// do — NewFold, Fit, PredictTargets — and packages it as a RankResponse.
// The server must match this byte for byte.
func libraryRank(t *testing.T, m *dataset.Matrix, chars map[string][]float64, family, app, method string, seed int64, top int) *RankResponse {
	t.Helper()
	targets, predictive, err := m.FamilySplit(family)
	if err != nil {
		t.Fatal(err)
	}
	fold, appOnTgt, err := transpose.NewFold(predictive, targets, app, chars)
	if err != nil {
		t.Fatal(err)
	}
	p, canon, err := NewPredictor(method, seed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := p.(transpose.Fitter).Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	predicted := make([]float64, model.NumTargets())
	if err := model.PredictTargets(predicted); err != nil {
		t.Fatal(err)
	}
	resp, err := BuildRankResponse(family, app, canon, m.Hash(), targets.Machines, predicted, appOnTgt, top)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func encodeResponse(t *testing.T, resp *RankResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRankResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postRank(t *testing.T, h http.Handler, req RankRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body)))
	return rec
}

func TestServerRankParityWithLibraryPath(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, method := range []string{"NN^T", "SPL^T", "MLP^T"} {
		want := encodeResponse(t, libraryRank(t, m, nil, "Alpha", "benchB", method, 3, 0))
		rec := postRank(t, h, RankRequest{Family: "Alpha", App: "benchB", Method: method})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", method, rec.Code, rec.Body.Bytes())
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: server response differs from library path\nserver:  %s\nlibrary: %s",
				method, rec.Body.Bytes(), want)
		}
	}
}

func TestServerRankParityOnSyntheticDatabase(t *testing.T) {
	if testing.Short() {
		t.Skip("full 29x117 dataset in -short mode")
	}
	data, err := synth.Generate(synth.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(data.Matrix, data.Characteristics, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	// GA-kNN included: the fold is characteristics-driven and the
	// predictor seeds from Seed+2 on both paths.
	methods := []string{"NN^T", "GA-kNN"}
	for _, method := range methods {
		want := encodeResponse(t, libraryRank(t, data.Matrix, data.Characteristics, "AMD Turion", "gcc", method, 2, 5))
		rec := postRank(t, h, RankRequest{Family: "AMD Turion", App: "gcc", Method: method, Top: 5})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", method, rec.Code, rec.Body.Bytes())
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: server response differs from library path", method)
		}
	}
}

func TestServerWarmQueriesDoNotRefit(t *testing.T) {
	// With the response cache enabled (the default), a repeated identical
	// query never reaches the registry: it is served from the rendered
	// bytes of the first answer.
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	req := RankRequest{Family: "Alpha", App: "benchC", Method: "nnt", Top: 3}
	first := postRank(t, h, req)
	second := postRank(t, h, req)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("HTTP %d / %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("warm query answered differently from cold query")
	}
	if st := srv.Registry().Stats(); st.Fits != 1 {
		t.Fatalf("two identical queries fitted %d times", st.Fits)
	}
	if hits := srv.cache.hits.Value(); hits != 1 {
		t.Fatalf("second query made %d response-cache hits, want 1", hits)
	}

	// With the response cache disabled, warm queries still do not refit:
	// the model registry answers them from the fitted artifact.
	srv2, err := NewServer(testWorld(t), nil, Options{Seed: 1, RankCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	h2 := srv2.Handler()
	first = postRank(t, h2, req)
	second = postRank(t, h2, req)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("HTTP %d / %d", first.Code, second.Code)
	}
	if first.Header().Get("ETag") != "" {
		t.Fatal("ETag served with the response cache disabled")
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("warm query answered differently from cold query")
	}
	st := srv2.Registry().Stats()
	if st.Fits != 1 {
		t.Fatalf("two identical queries fitted %d times", st.Fits)
	}
	if st.Hits < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerFreshScoresPath(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	targets, predictive, err := m.FamilySplit("Alpha")
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, predictive.NumMachines())
	for i := range scores {
		scores[i] = 2.5 + 1.3*float64(i)
	}
	resp, err := srv.Rank(context.Background(), RankRequest{Family: "Alpha", Method: "NN^T", Scores: scores})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Metrics != nil || resp.App != "" {
		t.Fatalf("fresh-scores response carries app-named fields: %+v", resp)
	}
	if len(resp.Ranking) != targets.NumMachines() {
		t.Fatalf("ranking over %d machines, want %d", len(resp.Ranking), targets.NumMachines())
	}

	// The same model must answer a second application without refitting,
	// and match the direct PredictTargetsWith path bit for bit.
	scores2 := make([]float64, len(scores))
	for i := range scores2 {
		scores2[i] = 9.0 - 0.7*float64(i)
	}
	resp2, err := srv.Rank(context.Background(), RankRequest{Family: "Alpha", Method: "NN^T", Scores: scores2})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Registry().Stats(); st.Fits != 1 {
		t.Fatalf("fresh-scores queries fitted %d times, want 1 shared model", st.Fits)
	}
	fold := transpose.Fold{AppName: "application-of-interest", Pred: predictive, AppOnPred: scores2, Tgt: targets}
	model, err := transpose.NNT{}.Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	direct := make([]float64, targets.NumMachines())
	if err := model.(*transpose.NNTModel).PredictTargetsWith(scores2, direct); err != nil {
		t.Fatal(err)
	}
	order := transpose.Ranking(direct)
	for i, e := range resp2.Ranking {
		want := targets.Machines[order[i]]
		if e.Machine != want.ID || math.Float64bits(e.Predicted) != math.Float64bits(direct[order[i]]) {
			t.Fatalf("entry %d: %+v, want %s @ %v", i, e, want.ID, direct[order[i]])
		}
	}
}

func TestServerRejectsBadRankRequests(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	cases := []struct {
		name string
		req  RankRequest
		want string
	}{
		{"unknown method", RankRequest{Family: "Alpha", App: "benchA", Method: "bogus"}, "valid methods"},
		{"unknown family", RankRequest{Family: "Nope", App: "benchA", Method: "nnt"}, "family"},
		{"unknown app", RankRequest{Family: "Alpha", App: "nope", Method: "nnt"}, "benchmark"},
		{"missing family", RankRequest{App: "benchA", Method: "nnt"}, "family"},
		{"neither app nor scores", RankRequest{Family: "Alpha", Method: "nnt"}, "exactly one"},
		{"both app and scores", RankRequest{Family: "Alpha", App: "benchA", Scores: []float64{1}, Method: "nnt"}, "exactly one"},
		{"scores for MLP^T", RankRequest{Family: "Alpha", Scores: []float64{1, 1, 1, 1}, Method: "mlpt"}, "cannot rank from raw scores"},
		{"wrong score count", RankRequest{Family: "Alpha", Scores: []float64{1}, Method: "nnt"}, "predictive machines"},
		{"non-finite score", RankRequest{Family: "Alpha", Scores: []float64{1, 2, 3, -4}, Method: "nnt"}, "invalid score"},
	}
	for _, tc := range cases {
		rec := postRank(t, h, tc.req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400 (%s)", tc.name, rec.Code, rec.Body.Bytes())
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, rec.Body.String(), tc.want)
		}
	}
	// GA-kNN without characteristics must fail cleanly, not panic.
	rec := postRank(t, h, RankRequest{Family: "Alpha", App: "benchA", Method: "gaknn"})
	if rec.Code == http.StatusOK {
		t.Fatal("GA-kNN without characteristics must error")
	}
}

func TestServerCoalescesConcurrentIdenticalQueries(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := RankRequest{Family: "Alpha", App: "benchD", Method: "SPL^T"}
	const clients = 16
	responses := make([]*RankResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Rank(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	want := encodeResponse(t, responses[0])
	for i := 1; i < clients; i++ {
		if !bytes.Equal(encodeResponse(t, responses[i]), want) {
			t.Fatalf("client %d got a different ranking", i)
		}
	}
	if st := srv.Registry().Stats(); st.Fits != 1 {
		t.Fatalf("%d concurrent identical queries fitted %d times", clients, st.Fits)
	}
}

func TestServerSnapshotHotSwap(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	oldHash := srv.SnapshotHash()
	if rec := postRank(t, h, RankRequest{Family: "Alpha", App: "benchA", Method: "nnt"}); rec.Code != http.StatusOK {
		t.Fatalf("pre-swap rank: HTTP %d", rec.Code)
	}

	// Swap in a snapshot with different scores via the HTTP endpoint.
	next := m.Compact()
	for b := 0; b < next.NumBenchmarks(); b++ {
		for c := 0; c < next.NumMachines(); c++ {
			next.Set(b, c, next.At(b, c)*1.5)
		}
	}
	var csv bytes.Buffer
	if err := next.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/snapshot", &csv))
	if rec.Code != http.StatusOK {
		t.Fatalf("swap: HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	if srv.SnapshotHash() == oldHash {
		t.Fatal("snapshot hash unchanged after swap")
	}
	// New queries fit against the new snapshot under a new key.
	if rec := postRank(t, h, RankRequest{Family: "Alpha", App: "benchA", Method: "nnt"}); rec.Code != http.StatusOK {
		t.Fatalf("post-swap rank: HTTP %d", rec.Code)
	}
	if st := srv.Registry().Stats(); st.Fits != 2 {
		t.Fatalf("fits = %d, want one per snapshot", st.Fits)
	}
	// Bad CSV must be rejected without touching the snapshot.
	cur := srv.SnapshotHash()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/snapshot", strings.NewReader("garbage")))
	if rec.Code != http.StatusBadRequest || srv.SnapshotHash() != cur {
		t.Fatalf("bad CSV: HTTP %d, hash changed=%v", rec.Code, srv.SnapshotHash() != cur)
	}
}

// repeatReader yields n copies of one byte without holding them.
type repeatReader struct {
	c byte
	n int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.c
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestServerBodyLimits pins the request body limits: a body up to the
// limit is read whole, and one past it is refused with 413 too_large
// rather than cut short. A snapshot cut at the limit would still parse
// here — its last score loses three digits — so the oversized upload
// must fail instead of swapping in a wrong snapshot.
func TestServerBodyLimits(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	wantTooLarge := func(rec *httptest.ResponseRecorder) {
		t.Helper()
		var body struct {
			Error struct{ Code string } `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusRequestEntityTooLarge || body.Error.Code != "too_large" {
			t.Fatalf("HTTP %d %s, want 413 too_large", rec.Code, rec.Body.Bytes())
		}
	}

	const query = `{"family":"Alpha","app":"benchA","method":"nnt"}`
	pad := func(n int) string { return query + strings.Repeat(" ", n-len(query)) }
	if rec := post(t, h, "/v1/rank", pad(maxRankBody)); rec.Code != http.StatusOK {
		t.Fatalf("rank body at the limit: HTTP %d %s", rec.Code, rec.Body.Bytes())
	}
	wantTooLarge(post(t, h, "/v1/rank", pad(maxRankBody+1)))

	// A valid CSV with blank lines (which the parser skips) before its
	// last row, streamed without a declared length to 3 bytes past the
	// limit.
	var csv bytes.Buffer
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(csv.Bytes()[:csv.Len()-1], '\n') + 1
	head, tail := csv.Bytes()[:cut], csv.Bytes()[cut:]
	cutShort, err := dataset.ReadCSV(bytes.NewReader(csv.Bytes()[:csv.Len()-3]))
	if err != nil || cutShort.Hash() == m.Hash() {
		t.Fatalf("the CSV cut 3 bytes short should parse to another snapshot (err %v)", err)
	}
	blank := int64(maxSnapshotBody + 3 - len(head) - len(tail))
	body := io.MultiReader(bytes.NewReader(head), &repeatReader{c: '\n', n: blank}, bytes.NewReader(tail))
	before := srv.SnapshotHash()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/snapshot", body))
	wantTooLarge(rec)
	if srv.SnapshotHash() != before {
		t.Fatal("an oversized snapshot upload swapped the snapshot")
	}
}

func TestServerInfoEndpoints(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	get := func(path string) (int, map[string]any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: %v (%s)", path, err, rec.Body.Bytes())
		}
		return rec.Code, body
	}

	code, body := get("/healthz")
	if code != http.StatusOK || body["status"] != "ok" || body["snapshot"] != srv.SnapshotHash() {
		t.Fatalf("healthz: %d %v", code, body)
	}

	code, body = get("/v1/methods")
	if code != http.StatusOK {
		t.Fatalf("methods: %d", code)
	}
	if methods, ok := body["methods"].([]any); !ok || len(methods) != len(method.List()) {
		t.Fatalf("methods body: %v", body)
	}

	code, body = get("/v1/machines?family=Beta")
	if code != http.StatusOK {
		t.Fatalf("machines: %d", code)
	}
	if machines, ok := body["machines"].([]any); !ok || len(machines) != 4 {
		t.Fatalf("machines body: %v", body)
	}
	if code, _ := get("/v1/machines?family=Nope"); code != http.StatusBadRequest {
		t.Fatalf("unknown family: %d", code)
	}
	// ?role= exposes the FamilySplit halves — predictive order is the
	// fresh-scores contract, so it must match FamilySplit exactly.
	code, body = get("/v1/machines?family=Alpha&role=predictive")
	if code != http.StatusOK {
		t.Fatalf("predictive machines: %d", code)
	}
	_, predictive, err := m.FamilySplit("Alpha")
	if err != nil {
		t.Fatal(err)
	}
	preds := body["machines"].([]any)
	if len(preds) != predictive.NumMachines() {
		t.Fatalf("%d predictive machines listed, want %d", len(preds), predictive.NumMachines())
	}
	for i, raw := range preds {
		if id := raw.(map[string]any)["id"]; id != predictive.Machines[i].ID {
			t.Fatalf("predictive order differs at %d: %v vs %s", i, id, predictive.Machines[i].ID)
		}
	}
	if code, _ := get("/v1/machines?family=Alpha&role=target"); code != http.StatusOK {
		t.Fatalf("target machines: %d", code)
	}
	if code, _ := get("/v1/machines?role=predictive"); code != http.StatusBadRequest {
		t.Fatal("role without family must be rejected")
	}
	if code, _ := get("/v1/machines?family=Alpha&role=bogus"); code != http.StatusBadRequest {
		t.Fatal("unknown role must be rejected")
	}

	postRank(t, h, RankRequest{Family: "Alpha", App: "benchA", Method: "nnt"})
	if metricValue(t, h, "dtrank_rank_ok_total") < 1 || metricValue(t, h, "dtrank_requests_total") < 1 {
		t.Fatal("rank and request counters did not move")
	}
	code, body = get("/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if reg, ok := body["registry"].(map[string]any); !ok || reg["fits"].(float64) != 1 {
		t.Fatalf("status body lacks registry stats with one fit: %v", body)
	}
}

// metricValue reads one unlabelled series from GET /metrics.
func metricValue(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics lacks %s", name)
	return 0
}

func TestServerFollowerSurvivesCancelledLeader(t *testing.T) {
	// A leader whose client disconnects mid-flight must not fail the
	// followers that joined its flight: the flight's work runs under the
	// server's lifetime, not the leader's request.
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1, RankCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g := installGated(t, srv, m, "benchE")
	h := srv.Handler()
	reqs := mlptTops("benchE", 4)
	want := soloRanks(t, m, reqs)

	ctx, cancel := context.WithCancel(context.Background())
	body, err := json.Marshal(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	leader := httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body)).WithContext(ctx)
	leaderDone := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), leader)
		close(leaderDone)
	}()
	<-g.entered

	followers := make([]*httptest.ResponseRecorder, len(reqs)-1)
	var wg sync.WaitGroup
	for i := range followers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			followers[i] = postRank(t, h, reqs[i+1])
		}(i)
	}
	waitCoalesced(srv, int64(len(followers)))
	cancel() // the leader's client goes away mid-flight
	close(g.release)
	wg.Wait()
	<-leaderDone
	for i, rec := range followers {
		if rec.Code != http.StatusOK {
			t.Fatalf("follower %d inherited the leader's cancellation: HTTP %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		if !bytes.Equal(rec.Body.Bytes(), want[i+1]) {
			t.Fatalf("follower %d got a different ranking", i)
		}
	}
}

func TestServerCloseUnblocksWaiters(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A request whose context is already cancelled must not fit.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Rank(ctx, RankRequest{Family: "Alpha", App: "benchA", Method: "nnt"}); err == nil {
		t.Fatal("want cancellation error")
	}
	if st := srv.Registry().Stats(); st.Fits != 0 {
		t.Fatalf("cancelled request fitted: %+v", st)
	}
	srv.Close()
}

func TestNewServerRejectsInvalidMatrix(t *testing.T) {
	if _, err := NewServer(nil, nil, Options{}); err == nil {
		t.Fatal("want error for nil matrix")
	}
}

func TestCanonicalMethodAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"nnt": "NN^T", "NN^T": "NN^T", "MLPT": "MLP^T", "spl^t": "SPL^T", "GaKnn": "GA-kNN",
	} {
		got, err := CanonicalMethod(alias)
		if err != nil || got != want {
			t.Fatalf("CanonicalMethod(%q) = %q, %v", alias, got, err)
		}
	}
	_, err := CanonicalMethod("weka")
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range MethodNames {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %s", err, name)
		}
	}
}

// TestMethodsEndpointMatchesRegistry asserts GET /v1/methods is generated
// from the method registry: every row carries the registry's aliases,
// seed offset, codec kind and capability flags, in registry order.
func TestMethodsEndpointMatchesRegistry(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/methods", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	var body struct {
		Methods []method.Info `json:"methods"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%v\n%s", err, rec.Body.Bytes())
	}
	want := method.List()
	if len(body.Methods) != len(want) {
		t.Fatalf("%d methods, want %d", len(body.Methods), len(want))
	}
	for i, w := range want {
		g := body.Methods[i]
		if g.Name != w.Name || g.SeedOffset != w.SeedOffset || g.CodecKind != w.CodecKind ||
			g.FreshScores != w.FreshScores || g.NeedsChars != w.NeedsChars ||
			g.Compared != w.Compared || g.Stochastic != w.Stochastic ||
			strings.Join(g.Aliases, ",") != strings.Join(w.Aliases, ",") {
			t.Fatalf("method %d = %+v, registry %+v", i, g, w)
		}
	}
	// Capability sanity straight against the serving contract.
	for _, g := range body.Methods {
		if g.FreshScores != SupportsFreshScores(g.Name) {
			t.Fatalf("%s: fresh_scores %v contradicts SupportsFreshScores", g.Name, g.FreshScores)
		}
	}
}
