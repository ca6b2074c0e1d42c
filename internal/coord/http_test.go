package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// newTestServer mounts a coordinator under /v1/work/ the way dtrankd does
// and returns a client resolved against the bare server URL.
func newTestServer(t *testing.T, c *Coordinator) (*httptest.Server, *Client) {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/work/", NewHTTPHandler(c))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	cl.Backoff = time.Millisecond
	return ts, cl
}

func TestClientRoundTrip(t *testing.T) {
	keys := testKeys(3)
	c, err := New("fp", keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t, c)
	ctx := context.Background()

	done := map[resultstore.Key]bool{}
	for {
		g, err := cl.Lease(ctx, "w", 0)
		if err != nil {
			t.Fatal(err)
		}
		if g.Plan != "fp" {
			t.Fatalf("grant plan %q", g.Plan)
		}
		if g.Done {
			break
		}
		if len(g.Units) == 0 {
			t.Fatalf("empty non-done grant with a single worker: %+v", g)
		}
		if g.TTL != DefaultLeaseTTL {
			t.Fatalf("grant TTL %v, want %v", g.TTL, DefaultLeaseTTL)
		}
		if _, err := cl.Heartbeat(ctx, g.ID); err != nil {
			t.Fatal(err)
		}
		res, err := cl.Complete(ctx, g.ID, g.Units, g.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(g.Units) {
			t.Fatalf("completed %d of %d", res.Completed, len(g.Units))
		}
		for _, k := range g.Units {
			done[k] = true
		}
		if res.Done {
			break
		}
	}
	if len(done) != len(keys) {
		t.Fatalf("completed %d of %d units", len(done), len(keys))
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != len(keys) || st.Pending != 0 || st.Beats == 0 {
		t.Fatalf("status %+v", st)
	}
}

func TestClientRetriesServerErrors(t *testing.T) {
	c, err := New("fp", testKeys(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := NewHTTPHandler(c)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl, err := NewClient(ts.URL + "/v1/work")
	if err != nil {
		t.Fatal(err)
	}
	cl.Backoff = time.Millisecond
	g, err := cl.Lease(context.Background(), "w", 0)
	if err != nil {
		t.Fatalf("lease through transient 502s: %v", err)
	}
	if len(g.Units) != 1 || calls.Load() != 3 {
		t.Fatalf("grant %+v after %d calls", g, calls.Load())
	}
}

func TestClientDoesNotRetryBadRequests(t *testing.T) {
	c, err := New("fp", testKeys(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	inner := NewHTTPHandler(c)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	cl.Backoff = time.Millisecond
	g, err := cl.Lease(context.Background(), "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	alien := resultstore.Key{Snapshot: "other", Spec: "x", Method: "m", Split: "s"}
	_, err = cl.Complete(context.Background(), g.ID, []resultstore.Key{alien}, "")
	if err == nil || !strings.Contains(err.Error(), "not in the plan") {
		t.Fatalf("complete of alien unit: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
	if IsLeaseLost(err) {
		t.Fatal("a 400 must not read as a lost lease")
	}
}

func TestIsLeaseLostOnExpiredHeartbeat(t *testing.T) {
	clk := newFakeClock()
	c, err := New("fp", testKeys(1), Options{LeaseTTL: 5 * time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t, c)
	g, err := cl.Lease(context.Background(), "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	_, err = cl.Heartbeat(context.Background(), g.ID)
	if err == nil || !IsLeaseLost(err) {
		t.Fatalf("heartbeat on expired lease: %v (IsLeaseLost=%v)", err, IsLeaseLost(err))
	}
}

// TestErrorEnvelopeShape pins the unified /v1 error body on the work
// endpoints: {"error":{"code":...,"message":...}}.
func TestErrorEnvelopeShape(t *testing.T) {
	c, err := New("fp", testKeys(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, c)

	resp, err := http.Post(ts.URL+"/v1/work/heartbeat", "application/json",
		bytes.NewReader([]byte(`{"lease":"nope"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "not_found" || !strings.Contains(body.Error.Message, "unknown or expired lease") {
		t.Fatalf("envelope %+v", body)
	}
}

func TestNewClientValidatesURL(t *testing.T) {
	for _, loc := range []string{"ftp://host", "http://", "://bad"} {
		if _, err := NewClient(loc); err == nil {
			t.Fatalf("NewClient(%q) accepted", loc)
		}
	}
	cl, err := NewClient("http://host:1234")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Base() != "http://host:1234/v1/work" {
		t.Fatalf("default mount %q", cl.Base())
	}
	cl, err = NewClient("http://host:1234/custom/")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Base() != "http://host:1234/custom" {
		t.Fatalf("explicit mount %q", cl.Base())
	}
}

// TestWorkBodyLimit posts bodies at and just past maxWorkBody to every
// POST endpoint: a valid request padded to exactly the limit is decoded,
// one byte more is refused whole with 413 too_large — never cut to its
// valid JSON prefix.
func TestWorkBodyLimit(t *testing.T) {
	c, err := New("fp", testKeys(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, c)
	for _, tc := range []struct {
		op, body string
		ok       int
	}{
		{"lease", `{"worker":"w"}`, http.StatusOK},
		{"heartbeat", `{"lease":"none"}`, http.StatusNotFound},
		{"complete", `{"lease":"none","units":[]}`, http.StatusOK},
	} {
		for _, size := range []int{maxWorkBody, maxWorkBody + 1} {
			body := tc.body + strings.Repeat(" ", size-len(tc.body))
			resp, err := http.Post(ts.URL+"/v1/work/"+tc.op, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Error struct{ Code string } `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			want, code := tc.ok, env.Error.Code
			if size > maxWorkBody {
				want = http.StatusRequestEntityTooLarge
				if code != "too_large" {
					t.Fatalf("%s with %d bytes: error code %q, want too_large", tc.op, size, code)
				}
			}
			if resp.StatusCode != want {
				t.Fatalf("%s with %d bytes: status %d, want %d", tc.op, size, resp.StatusCode, want)
			}
		}
	}
}
