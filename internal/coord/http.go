package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/resultstore"
)

// The HTTP work protocol, mounted by dtrankd under /v1/work/ (the base a
// bare host URL addresses). Request and response bodies are JSON; errors
// use the unified /v1 envelope (internal/api). Durations travel as
// integral milliseconds.
//
//	POST <base>/lease      {"worker":W,"max":N}   -> lease grant
//	POST <base>/heartbeat  {"lease":ID}           -> {"ttl_ms":...}
//	POST <base>/complete   {"lease":ID,"units":[Key...]} -> CompleteResult
//	GET  <base>/status     -> Stats
//
// A heartbeat for an expired lease is 404 not_found: the worker keeps
// computing and completes anyway — completion is idempotent because unit
// results are content-addressed in the shared store.

// maxWorkBody bounds one request body; a longer one is refused whole
// with 413 too_large.
const maxWorkBody = 8 << 20

// leaseRequest is the body of POST <base>/lease.
type leaseRequest struct {
	// Worker names the caller (for lease ids and logs).
	Worker string `json:"worker"`
	// Max caps the units granted on top of the adaptive size; 0 means
	// no worker-side cap.
	Max int `json:"max,omitempty"`
}

// leaseResponse is the wire form of a Grant.
type leaseResponse struct {
	Lease     string            `json:"lease,omitempty"`
	Trace     string            `json:"trace,omitempty"`
	Units     []resultstore.Key `json:"units,omitempty"`
	TTLMillis int64             `json:"ttl_ms"`
	Plan      string            `json:"plan"`
	Done      bool              `json:"done"`
	Remaining int               `json:"remaining"`
	RetryMs   int64             `json:"retry_ms,omitempty"`
}

// heartbeatRequest is the body of POST <base>/heartbeat.
type heartbeatRequest struct {
	Lease string `json:"lease"`
}

// heartbeatResponse acknowledges an extension.
type heartbeatResponse struct {
	TTLMillis int64 `json:"ttl_ms"`
}

// completeRequest is the body of POST <base>/complete. Trace echoes the
// grant's trace ID so a complete arriving after the lease expired still
// logs joinably on the coordinator side.
type completeRequest struct {
	Lease string            `json:"lease"`
	Trace string            `json:"trace,omitempty"`
	Units []resultstore.Key `json:"units"`
}

// HTTPHandler serves a Coordinator over the work protocol. It routes on
// the final path element, so it works under any mount prefix (dtrankd
// uses /v1/work/).
type HTTPHandler struct {
	c *Coordinator
}

// NewHTTPHandler wraps c.
func NewHTTPHandler(c *Coordinator) *HTTPHandler { return &HTTPHandler{c: c} }

// Stats exposes the wrapped coordinator's counters (for /debug/vars).
func (h *HTTPHandler) Stats() Stats { return h.c.Stats() }

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := path.Base(path.Clean(r.URL.Path))
	if op == "status" {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			api.WriteError(w, http.StatusMethodNotAllowed, "", "use GET for %s", op)
			return
		}
		writeJSON(w, h.c.Stats())
		return
	}
	switch op {
	case "lease", "heartbeat", "complete":
	default:
		api.WriteError(w, http.StatusNotFound, "", "unknown work endpoint %q (valid: lease, heartbeat, complete, status)", op)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		api.WriteError(w, http.StatusMethodNotAllowed, "", "use POST for %s", op)
		return
	}
	// Read the whole body under the limit before decoding: a cut body
	// could otherwise pass as its valid JSON prefix.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWorkBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			api.WriteError(w, http.StatusRequestEntityTooLarge, "", "request body exceeds the %d-byte limit", tooLarge.Limit)
		} else {
			api.WriteError(w, http.StatusBadRequest, "", "reading %s request: %v", op, err)
		}
		return
	}
	body := bytes.NewReader(raw)
	switch op {
	case "lease":
		var req leaseRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			api.WriteError(w, http.StatusBadRequest, "", "decoding lease request: %v", err)
			return
		}
		if req.Worker == "" {
			api.WriteError(w, http.StatusBadRequest, "", "lease request needs a worker name")
			return
		}
		g := h.c.Lease(req.Worker, req.Max)
		writeJSON(w, leaseResponse{
			Lease:     g.ID,
			Trace:     g.Trace,
			Units:     g.Units,
			TTLMillis: g.TTL.Milliseconds(),
			Plan:      g.Plan,
			Done:      g.Done,
			Remaining: g.Remaining,
			RetryMs:   g.RetryAfter.Milliseconds(),
		})
	case "heartbeat":
		var req heartbeatRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			api.WriteError(w, http.StatusBadRequest, "", "decoding heartbeat request: %v", err)
			return
		}
		ttl, err := h.c.Heartbeat(req.Lease)
		if err != nil {
			api.WriteError(w, http.StatusNotFound, "", "%v", err)
			return
		}
		writeJSON(w, heartbeatResponse{TTLMillis: ttl.Milliseconds()})
	case "complete":
		var req completeRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			api.WriteError(w, http.StatusBadRequest, "", "decoding complete request: %v", err)
			return
		}
		res, err := h.c.Complete(req.Lease, req.Units, req.Trace)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, "", "%v", err)
			return
		}
		writeJSON(w, res)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Client is the worker side of the work protocol: thin typed calls with
// bounded retry and exponential backoff on transport errors and 5xx
// responses. 4xx responses fail immediately — they mean the request
// itself is wrong, and retrying cannot fix it.
type Client struct {
	base string
	hc   *http.Client

	// Attempts bounds tries per call (default 5); Backoff is the first
	// retry delay, doubling per attempt (default 100ms).
	Attempts int
	Backoff  time.Duration

	ops map[string]*obs.Histogram // per-op call latency, set by Instrument
}

// Instrument records every protocol call's wall time (retries included)
// into dtrank_coord_client_seconds{op} histograms in reg. Call it once
// before the worker loop starts; it is not safe concurrently with calls.
func (cl *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	cl.ops = map[string]*obs.Histogram{}
	for _, op := range []string{"lease", "heartbeat", "complete", "status"} {
		cl.ops[op] = reg.Histogram("dtrank_coord_client_seconds", obs.L("op", op))
	}
}

// NewClient parses a coordinator URL. A URL without a path (or with path
// "/") addresses the daemon's default mount, /v1/work; a URL with an
// explicit path is used as given.
func NewClient(loc string) (*Client, error) {
	u, err := url.Parse(loc)
	if err != nil {
		return nil, fmt.Errorf("coord: coordinator URL %q: %w", loc, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("coord: coordinator URL %q must be http(s)", loc)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("coord: coordinator URL %q has no host", loc)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/v1/work"
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	return &Client{
		base: u.String(),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}, nil
}

// Base returns the resolved endpoint base URL.
func (cl *Client) Base() string { return cl.base }

func (cl *Client) attempts() int {
	if cl.Attempts > 0 {
		return cl.Attempts
	}
	return 5
}

func (cl *Client) backoff() time.Duration {
	if cl.Backoff > 0 {
		return cl.Backoff
	}
	return 100 * time.Millisecond
}

// retryable reports whether a response status merits another attempt.
func retryable(status int) bool { return status >= 500 }

// statusError carries the HTTP status of a non-2xx response.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// IsLeaseLost reports whether err is the coordinator's 404 for an unknown
// or expired lease — the signal that the worker's units were requeued. The
// worker keeps computing and completes anyway; completion is idempotent.
func IsLeaseLost(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.status == http.StatusNotFound
}

// call POSTs (or GETs, when in is nil) op and decodes the JSON response
// into out, retrying transport failures and 5xx with exponential backoff.
func (cl *Client) call(ctx context.Context, method, op string, in, out any) error {
	if h := cl.ops[op]; h != nil {
		defer func(t0 time.Time) { h.Observe(time.Since(t0)) }(time.Now())
	}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("coord: encoding %s request: %w", op, err)
		}
	}
	delay := cl.backoff()
	var lastErr error
	for attempt := 0; attempt < cl.attempts(); attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
			delay *= 2
		}
		req, err := http.NewRequestWithContext(ctx, method, cl.base+"/"+op, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("coord: %s: %w", op, err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := cl.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("coord: %s: %w", op, err)
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxWorkBody))
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("coord: %s: reading response: %w", op, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			err := &statusError{status: resp.StatusCode, err: fmt.Errorf("coord: %s: %w", op, api.DecodeError(resp.Status, respBody))}
			if retryable(resp.StatusCode) {
				lastErr = err
				continue
			}
			return err
		}
		if err := json.Unmarshal(respBody, out); err != nil {
			return fmt.Errorf("coord: %s: decoding response: %w", op, err)
		}
		return nil
	}
	return fmt.Errorf("coord: %s failed after %d attempts: %w", op, cl.attempts(), lastErr)
}

// Lease requests a batch of up to max units (0 = adaptive size only).
func (cl *Client) Lease(ctx context.Context, worker string, max int) (Grant, error) {
	var resp leaseResponse
	if err := cl.call(ctx, http.MethodPost, "lease", leaseRequest{Worker: worker, Max: max}, &resp); err != nil {
		return Grant{}, err
	}
	return Grant{
		ID:         resp.Lease,
		Trace:      resp.Trace,
		Units:      resp.Units,
		TTL:        time.Duration(resp.TTLMillis) * time.Millisecond,
		Plan:       resp.Plan,
		Done:       resp.Done,
		Remaining:  resp.Remaining,
		RetryAfter: time.Duration(resp.RetryMs) * time.Millisecond,
	}, nil
}

// Heartbeat extends the lease. An expired or unknown lease earns a 404,
// reported by IsLeaseLost — workers treat it as "keep going, the lease is
// gone", not as a broken coordinator.
func (cl *Client) Heartbeat(ctx context.Context, leaseID string) (time.Duration, error) {
	var resp heartbeatResponse
	err := cl.call(ctx, http.MethodPost, "heartbeat", heartbeatRequest{Lease: leaseID}, &resp)
	if err != nil {
		return 0, err
	}
	return time.Duration(resp.TTLMillis) * time.Millisecond, nil
}

// Complete reports a batch of units as computed and stored, echoing the
// grant's trace ID (empty is allowed; the line just loses joinability).
func (cl *Client) Complete(ctx context.Context, leaseID string, units []resultstore.Key, trace string) (CompleteResult, error) {
	var res CompleteResult
	if err := cl.call(ctx, http.MethodPost, "complete", completeRequest{Lease: leaseID, Trace: trace, Units: units}, &res); err != nil {
		return CompleteResult{}, err
	}
	return res, nil
}

// Status fetches the coordinator's progress snapshot.
func (cl *Client) Status(ctx context.Context) (Stats, error) {
	var st Stats
	if err := cl.call(ctx, http.MethodGet, "status", nil, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}
