package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// storeServer mounts an HTTPHandler over dir the way dtrankd does (under
// /v1/store/) and returns the test server plus the handler for counter
// assertions.
func storeServer(t *testing.T, dir string) (*httptest.Server, *HTTPHandler) {
	t.Helper()
	h, err := NewHTTPHandler(dir)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/store/", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, h
}

// TestBackendsRoundTrip runs the same Put/Get/miss/counter sequence over
// all three backends — the interface contract every backend must share.
func TestBackendsRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) (writer, reader Store)
	}{
		{"mem", func(t *testing.T) (Store, Store) {
			s := New()
			return s, s
		}},
		{"dir", func(t *testing.T) (Store, Store) {
			dir := t.TempDir()
			w, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			return w, r
		}},
		{"http", func(t *testing.T) (Store, Store) {
			ts, _ := storeServer(t, t.TempDir())
			w, err := Open(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Open(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			return w, r
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			writer, reader := tc.open(t)
			key := testKey("table2")
			want := payload{Name: "cell", Values: []float64{1.5, -0.25}}
			var out payload
			if err := writer.Put(key, want, &out); err != nil {
				t.Fatal(err)
			}
			if out.Name != want.Name || len(out.Values) != 2 {
				t.Fatalf("round trip %+v", out)
			}
			var got payload
			if ok, err := reader.Get(key, &got); err != nil || !ok {
				t.Fatalf("Get = %v, %v", ok, err)
			}
			if got.Name != want.Name || got.Values[1] != want.Values[1] {
				t.Fatalf("Get %+v != %+v", got, want)
			}
			other := testKey("other-spec")
			if ok, err := reader.Get(other, &got); err != nil || ok {
				t.Fatalf("unrelated key Get = %v, %v", ok, err)
			}
			st := reader.Stats()
			if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
				t.Fatalf("reader stats %+v", st)
			}
		})
	}
}

func TestHTTPStoreLocationForms(t *testing.T) {
	for in, want := range map[string]string{
		"http://example.com:8117":           "http://example.com:8117/v1/store",
		"http://example.com:8117/":          "http://example.com:8117/v1/store",
		"http://example.com:8117/v1/store":  "http://example.com:8117/v1/store",
		"http://example.com:8117/v1/store/": "http://example.com:8117/v1/store",
		"https://example.com/custom/mount":  "https://example.com/custom/mount",
	} {
		s, err := Open(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if s.Location() != want {
			t.Fatalf("%s: Location() = %q, want %q", in, s.Location(), want)
		}
	}
	if _, err := Open("http://"); err == nil {
		t.Fatal("want host error")
	}
}

// TestHTTPServerRejectsCorruptPut is the server-side half of the damage
// guarantee: a mangled entry never enters the shared store.
func TestHTTPServerRejectsCorruptPut(t *testing.T) {
	dir := t.TempDir()
	ts, h := storeServer(t, dir)
	key := testKey("table3")

	pay, err := marshal(payload{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := EncodeEntry(key, pay)
	if err != nil {
		t.Fatal(err)
	}
	put := func(stem string, blob []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/store/"+stem, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Truncated, bit-flipped and foreign uploads are refused.
	if code := put(key.Stem(), entry[:len(entry)/2]); code != http.StatusBadRequest {
		t.Fatalf("truncated PUT = %d", code)
	}
	flipped := append([]byte(nil), entry...)
	flipped[len(flipped)-6] ^= 0x40
	if code := put(key.Stem(), flipped); code != http.StatusBadRequest {
		t.Fatalf("bit-flipped PUT = %d", code)
	}
	if code := put(key.Stem(), []byte("not an entry")); code != http.StatusBadRequest {
		t.Fatalf("foreign PUT = %d", code)
	}
	// A stale upload — valid frame, but its key belongs to another unit.
	if code := put(testKey("elsewhere").Stem(), entry); code != http.StatusBadRequest {
		t.Fatalf("stale PUT = %d", code)
	}
	// Path traversal shapes never touch the filesystem.
	if code := put("..%2F..%2Fetc", entry); code != http.StatusBadRequest {
		t.Fatalf("traversal PUT = %d", code)
	}
	// A client of the previous entry format is refused.
	old := append([]byte(nil), entry...)
	binary.LittleEndian.PutUint16(old[len(entryMagic):], entryVersion-1)
	if code := put(key.Stem(), old); code != http.StatusBadRequest {
		t.Fatalf("previous-version PUT = %d", code)
	}
	if st := h.Stats(); st.Rejected != 6 || st.Puts != 0 {
		t.Fatalf("handler stats %+v", st)
	}
	if entries, err := ScanDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("rejected uploads reached disk: %v %v", entries, err)
	}

	// The genuine upload still lands.
	if code := put(key.Stem(), entry); code != http.StatusNoContent {
		t.Fatalf("valid PUT = %d", code)
	}
	if st := h.Stats(); st.Puts != 1 {
		t.Fatalf("handler stats %+v", st)
	}
}

// TestHTTPServerRefusesDamagedEntryOnGet damages a stored file and
// asserts the server 404s instead of serving bytes that cannot verify.
func TestHTTPServerRefusesDamagedEntryOnGet(t *testing.T) {
	dir := t.TempDir()
	ts, h := storeServer(t, dir)
	w, err := Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("fig8")
	if err := w.Put(key, 0.75, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Stem()+entryExt)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-6] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var v float64
	if ok, err := r.Get(key, &v); err != nil || ok {
		t.Fatalf("damaged remote entry must be a miss: %v %v", ok, err)
	}
	// The server refused to serve it (a reject), and the client recorded
	// a plain miss — the 404 path, not the corrupt path.
	if st := h.Stats(); st.Rejected != 1 || st.Gets != 0 {
		t.Fatalf("handler stats %+v", st)
	}
	if st := r.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("client stats %+v", st)
	}
	// Recompute heals the entry over the same channel.
	if err := r.Put(key, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r2.Get(key, &v); err != nil || !ok || v != 0.5 {
		t.Fatalf("healed Get = %v %v %v", ok, err, v)
	}
}

// TestHTTPStoreInterchangeableWithDir pins the deployment property the
// sharded pipeline uses: entries written over HTTP are read by a
// directory store on the served directory, and vice versa.
func TestHTTPStoreInterchangeableWithDir(t *testing.T) {
	dir := t.TempDir()
	ts, _ := storeServer(t, dir)

	remote, err := Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := testKey("via-http"), testKey("via-dir")
	if err := remote.Put(k1, payload{Name: "http"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := local.Put(k2, payload{Name: "dir"}, nil); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := local.Get(k1, &got); err != nil || !ok || got.Name != "http" {
		t.Fatalf("dir read of HTTP write: %v %v %+v", ok, err, got)
	}
	remote2, err := Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := remote2.Get(k2, &got); err != nil || !ok || got.Name != "dir" {
		t.Fatalf("HTTP read of dir write: %v %v %+v", ok, err, got)
	}
}

func TestHTTPServerList(t *testing.T) {
	ts, _ := storeServer(t, t.TempDir())
	w, err := Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{testKey("a"), testKey("b")}
	for _, k := range keys {
		if err := w.Put(k, 1.0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A malformed stem is a plain 404 miss, never the listing.
	if resp, err := http.Get(ts.URL + "/v1/store/deadbeef"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET of invalid stem = %d, want 404", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/store/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	var body struct {
		Entries []struct {
			Stem string `json:"stem"`
			Key  Key    `json:"key"`
			Size int64  `json:"size"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Entries) != len(keys) {
		t.Fatalf("%d entries", len(body.Entries))
	}
	seen := map[string]bool{}
	for _, e := range body.Entries {
		if e.Key.Stem() != e.Stem || e.Size <= 0 {
			t.Fatalf("entry %+v", e)
		}
		seen[e.Key.Spec] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("entries %+v", body.Entries)
	}
}

// TestHTTPStoreUnreachableDegrades pins the failure split: a dead remote
// makes Get a recomputable miss (corrupt counter) but makes Put fail —
// a shard must never pretend it published results.
func TestHTTPStoreUnreachableDegrades(t *testing.T) {
	ts, _ := storeServer(t, t.TempDir())
	url := ts.URL
	ts.Close()
	s, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	var v float64
	if ok, err := s.Get(testKey("x"), &v); err != nil || ok {
		t.Fatalf("unreachable Get = %v, %v", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := s.Put(testKey("x"), 1.0, nil); err == nil {
		t.Fatal("unreachable Put must fail")
	} else if !strings.Contains(err.Error(), "remote put") {
		t.Fatalf("err = %v", err)
	}
}
