package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// etagShape is the documented entity-tag format of /v1/rank.
var etagShape = regexp.MustCompile(`^"[0-9a-f]{16}-[0-9a-f]{16}"$`)

// postRaw posts a literal /v1/rank body, optionally with extra headers.
func postRaw(t *testing.T, h http.Handler, body string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader(body))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRankCacheCanonicalisesQueryShape posts two byte-different but
// semantically identical request bodies — shuffled field order, an
// explicit default top, a method alias for the canonical spelling — and
// asserts they map to one cache key (one fit, one miss then one hit) and
// produce identical bytes under identical ETags.
func TestRankCacheCanonicalisesQueryShape(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	first := postRaw(t, h, `{"family":"Alpha","method":"NN^T","app":"benchC","top":3}`, nil)
	second := postRaw(t, h, `{"top":3,"app":"benchC","method":"nnt","scores":null,"family":"Alpha"}`, nil)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("HTTP %d / %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("semantically identical bodies answered differently")
	}
	et1, et2 := first.Header().Get("ETag"), second.Header().Get("ETag")
	if et1 == "" || et1 != et2 {
		t.Fatalf("ETags %q / %q, want identical and non-empty", et1, et2)
	}
	if st := srv.Registry().Stats(); st.Fits != 1 {
		t.Fatalf("one canonical query shape fitted %d models", st.Fits)
	}
	if hits, misses := srv.cache.hits.Value(), srv.cache.misses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A genuinely different query (another top clamp) must NOT share the
	// shape.
	third := postRaw(t, h, `{"family":"Alpha","method":"NN^T","app":"benchC","top":2}`, nil)
	if third.Code != http.StatusOK {
		t.Fatalf("HTTP %d", third.Code)
	}
	if et3 := third.Header().Get("ETag"); et3 == et1 {
		t.Fatalf("top=2 and top=3 share ETag %q", et3)
	}
}

// TestRankETagRevalidation pins the conditional-request contract: a
// request carrying the previous answer's ETag in If-None-Match gets a
// bodyless 304 whether the entry is cache-resident (hit path) or has to
// be recomputed, and the tag has the documented shape.
func TestRankETagRevalidation(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := `{"family":"Alpha","method":"NN^T","app":"benchC","top":3}`

	first := postRaw(t, h, body, nil)
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

	// Revalidation against the cache-resident entry.
	rev := postRaw(t, h, body, map[string]string{"If-None-Match": etag})
	if rev.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation got HTTP %d, want 304", rev.Code)
	}
	if rev.Body.Len() != 0 {
		t.Fatalf("304 carried a %d-byte body", rev.Body.Len())
	}
	if rev.Header().Get("ETag") != etag {
		t.Fatalf("304 ETag %q, want %q", rev.Header().Get("ETag"), etag)
	}
	// A list with other candidates still matches; a stale tag does not.
	rev = postRaw(t, h, body, map[string]string{"If-None-Match": `"zzz", ` + etag})
	if rev.Code != http.StatusNotModified {
		t.Fatalf("list revalidation got HTTP %d, want 304", rev.Code)
	}
	miss := postRaw(t, h, body, map[string]string{"If-None-Match": `"0000000000000000-0000000000000000"`})
	if miss.Code != http.StatusOK || miss.Body.Len() == 0 {
		t.Fatalf("stale-tag request got HTTP %d with %d bytes, want 200 with body", miss.Code, miss.Body.Len())
	}

	// Recompute path: purge the cache, revalidate again — the handler
	// computes, compares tags, and still answers 304.
	srv.cache.purge()
	rev = postRaw(t, h, body, map[string]string{"If-None-Match": etag})
	if rev.Code != http.StatusNotModified || rev.Body.Len() != 0 {
		t.Fatalf("post-purge revalidation got HTTP %d with %d bytes, want bodyless 304", rev.Code, rev.Body.Len())
	}
	if nm := srv.rankNotModified.Value(); nm != 3 {
		t.Fatalf("rankcache_not_modified = %d, want 3", nm)
	}
}

// TestRankCachePurgedOnSnapshotSwap asserts a hot-swap invalidates the
// response cache wholesale and changes the served ETag.
func TestRankCachePurgedOnSnapshotSwap(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := `{"family":"Alpha","method":"NN^T","app":"benchC","top":3}`
	first := postRaw(t, h, body, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("HTTP %d", first.Code)
	}
	if srv.cache.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", srv.cache.len())
	}

	next := testWorld(t)
	next.Set(0, 0, next.At(0, 0)*2) // different data, different hash
	if _, err := srv.SwapSnapshot(next, nil); err != nil {
		t.Fatal(err)
	}
	if srv.cache.len() != 0 {
		t.Fatalf("cache holds %d entries after swap, want 0", srv.cache.len())
	}
	second := postRaw(t, h, body, map[string]string{"If-None-Match": first.Header().Get("ETag")})
	if second.Code != http.StatusOK {
		t.Fatalf("post-swap revalidation got HTTP %d, want 200 (data changed)", second.Code)
	}
	if second.Header().Get("ETag") == first.Header().Get("ETag") {
		t.Fatal("ETag unchanged across snapshot swap")
	}
	if bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("swap served stale bytes")
	}
}

// TestRankCacheBounded fills the cache past its bound and asserts LRU
// eviction holds the entry count.
func TestRankCacheBounded(t *testing.T) {
	srv, err := NewServer(testWorld(t), nil, Options{Seed: 1, RankCache: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for top := 1; top <= 5; top++ {
		rec := postRank(t, h, RankRequest{Family: "Alpha", App: "benchC", Method: "NN^T", Top: top})
		if rec.Code != http.StatusOK {
			t.Fatalf("top=%d: HTTP %d", top, rec.Code)
		}
	}
	if n := srv.cache.len(); n != 3 {
		t.Fatalf("cache holds %d entries, bound is 3", n)
	}
	if ev := srv.cache.evictions.Value(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
}

// TestRegistryEvictsStaleSnapshotsOnSwap asserts the eager-invalidation
// fix: after a hot-swap the registry holds no keys under the replaced
// snapshot's hash.
func TestRegistryEvictsStaleSnapshotsOnSwap(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, app := range []string{"benchA", "benchB", "benchC"} {
		if rec := postRank(t, h, RankRequest{Family: "Alpha", App: app, Method: "NN^T"}); rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", app, rec.Code)
		}
	}
	oldHash := srv.SnapshotHash()
	if n := srv.Registry().Len(); n != 3 {
		t.Fatalf("registry holds %d models before swap, want 3", n)
	}

	next := testWorld(t)
	next.Set(0, 0, next.At(0, 0)*2)
	newHash, err := srv.SwapSnapshot(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newHash == oldHash {
		t.Fatal("swap did not change the snapshot hash")
	}
	if n := srv.Registry().Len(); n != 0 {
		t.Fatalf("registry holds %d stale models after swap, want 0", n)
	}
	for _, k := range srv.Registry().Keys() {
		if k.Snapshot != newHash {
			t.Fatalf("stale key %+v survived the swap", k)
		}
	}
	// New-snapshot queries repopulate as usual.
	if rec := postRank(t, h, RankRequest{Family: "Alpha", App: "benchA", Method: "NN^T"}); rec.Code != http.StatusOK {
		t.Fatalf("post-swap query: HTTP %d", rec.Code)
	}
	keys := srv.Registry().Keys()
	if len(keys) != 1 || keys[0].Snapshot != newHash {
		t.Fatalf("post-swap registry keys = %+v", keys)
	}
}
