package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// FuzzWorkRequest drives the work protocol's request bodies with a
// script: each line is one POST, its first byte picking the endpoint
// ('l' lease, 'h' heartbeat, 'c' complete; any other byte by its value
// mod 3) and the rest its body. Every response must be 200, or 400 or 404
// in the unified error envelope, and after every request each leased
// unit must be held by a live lease and the counters must add up.
func FuzzWorkRequest(f *testing.F) {
	ops := [...]string{"lease", "heartbeat", "complete"}
	f.Fuzz(func(t *testing.T, script []byte) {
		c, err := New("fp", testKeys(4), Options{MaxBatch: 3})
		if err != nil {
			t.Fatal(err)
		}
		h := NewHTTPHandler(c)
		for n, line := range bytes.SplitN(script, []byte("\n"), 16) {
			if len(line) == 0 {
				continue
			}
			op := ops[int(line[0])%len(ops)]
			switch line[0] {
			case 'l':
				op = "lease"
			case 'h':
				op = "heartbeat"
			case 'c':
				op = "complete"
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/work/"+op, bytes.NewReader(line[1:])))
			switch rec.Code {
			case http.StatusOK:
				if !json.Valid(rec.Body.Bytes()) {
					t.Fatalf("request %d (%s %q): invalid JSON reply %q", n, op, line[1:], rec.Body.Bytes())
				}
			case http.StatusBadRequest, http.StatusNotFound:
				var env api.ErrorBody
				dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&env); err != nil || env.Error.Code != api.CodeForStatus(rec.Code) || env.Error.Message == "" {
					t.Fatalf("request %d (%s %q): HTTP %d with body %q, want the error envelope", n, op, line[1:], rec.Code, rec.Body.Bytes())
				}
			default:
				t.Fatalf("request %d (%s %q): HTTP %d %q", n, op, line[1:], rec.Code, rec.Body.Bytes())
			}
			checkLeases(t, c)
		}
	})
}

// checkLeases verifies the coordinator's unit accounting: every leased
// unit is owned by a live lease, the state counts match the counters, and
// Stats adds up to the plan.
func checkLeases(t *testing.T, c *Coordinator) {
	t.Helper()
	st := c.Stats()
	if st.Done+st.Leased+st.Pending != st.Total || st.Done < 0 || st.Leased < 0 || st.Pending < 0 {
		t.Fatalf("inconsistent stats %+v", st)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	done, leased := 0, 0
	for u, s := range c.state {
		switch s {
		case stateDone:
			done++
		case stateLeased:
			leased++
			if _, ok := c.leases[c.owner[u]]; !ok {
				t.Fatalf("unit %d is leased to %q, which is no live lease", u, c.owner[u])
			}
		}
	}
	if done != c.doneCount || leased != c.leasedCount {
		t.Fatalf("%d done and %d leased units, counters say %d and %d", done, leased, c.doneCount, c.leasedCount)
	}
}
