package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/resultstore"
	"repro/internal/serve"
)

// storeWorld builds a minimal server with the result store enabled and
// returns the daemon-equivalent test server plus the store directory.
func storeWorld(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	m, err := dataset.New([]string{"b1", "b2"}, []dataset.Machine{
		{ID: "m1", Family: "F1", Year: 2008},
		{ID: "m2", Family: "F2", Year: 2009},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	dir := t.TempDir()
	srv, err := serve.NewServer(m, nil, serve.Options{Seed: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, dir
}

// TestServerMountsResultStore drives the daemon's /v1/store/ endpoints
// through the resultstore client: a remote put is readable both over
// HTTP and directly from the served directory, and /v1/status reports
// the store counters.
func TestServerMountsResultStore(t *testing.T) {
	ts, dir := storeWorld(t)

	remote, err := resultstore.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	key := resultstore.Key{Snapshot: "fp", Spec: "table3", Method: "NN^T", Split: "2008", Seed: 1}
	if err := remote.Put(key, 0.25, nil); err != nil {
		t.Fatal(err)
	}
	var v float64
	reader, err := resultstore.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := reader.Get(key, &v); err != nil || !ok || v != 0.25 {
		t.Fatalf("remote Get = %v %v %v", ok, err, v)
	}
	local, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := local.Get(key, &v); err != nil || !ok || v != 0.25 {
		t.Fatalf("dir Get of daemon-stored unit = %v %v %v", ok, err, v)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Store *resultstore.HandlerStats `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Store == nil || vars.Store.Puts != 1 || vars.Store.Gets != 1 {
		t.Fatalf("store vars %+v", vars.Store)
	}
}

// TestServerWithoutStoreDirHas404Store asserts the endpoints are absent
// unless -cache is given.
func TestServerWithoutStoreDirHas404Store(t *testing.T) {
	m, err := dataset.New([]string{"b1", "b2"}, []dataset.Machine{
		{ID: "m1", Family: "F1", Year: 2008},
		{ID: "m2", Family: "F2", Year: 2009},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	srv, err := serve.NewServer(m, nil, serve.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/store/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("store endpoint without -cache = %d", resp.StatusCode)
	}
}
