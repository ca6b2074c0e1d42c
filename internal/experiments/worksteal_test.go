package experiments

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/resultstore"
)

// stealWorker simulates one `dtrank run -worker` process: a fresh Config
// and store on the shared location, the same plan, and the lease →
// execute → complete loop against the coordinator URL. It returns an
// error instead of failing the test so it can run in goroutines.
func stealWorker(coordURL, loc, name string, ids ...string) (coord.WorkerStats, error) {
	st, err := resultstore.Open(loc)
	if err != nil {
		return coord.WorkerStats{}, err
	}
	cfg := fastConfig()
	cfg.Store = st
	plan, err := PlanSpecs(cfg, ids...)
	if err != nil {
		return coord.WorkerStats{}, err
	}
	cl, err := coord.NewClient(coordURL)
	if err != nil {
		return coord.WorkerStats{}, err
	}
	exec := plan.Executor()
	w := &coord.Worker{
		Client: cl,
		Name:   name,
		Plan:   plan.Fingerprint(),
		Exec: func(ctx context.Context, keys []resultstore.Key) error {
			units, err := plan.UnitsByKey(keys)
			if err != nil {
				return err
			}
			return exec.Execute(units)
		},
	}
	return w.Run(context.Background())
}

// TestWorkStealingDeadWorkerByteIdentical is the distributed-run
// acceptance test, once per merge backend: a coordinator plans the
// specs, one worker leases a batch and dies without completing it, two
// live workers drain the whole plan into one shared store — including
// the recovered units — with no unit completed twice, and the merged
// render is byte-identical to a single-process run, reading every unit
// and computing none.
func TestWorkStealingDeadWorkerByteIdentical(t *testing.T) {
	ids := []string{SpecTable3, SpecFigure8}

	// Single-process reference.
	var ref bytes.Buffer
	if err := RunSpecs(fastConfig(), &ref, ids...); err != nil {
		t.Fatal(err)
	}

	for _, backend := range []string{"dir", "http"} {
		t.Run(backend, func(t *testing.T) {
			// Coordinator over the same plan, short TTL so the dead
			// worker's lease expires within the test.
			plan, err := PlanSpecs(fastConfig(), ids...)
			if err != nil {
				t.Fatal(err)
			}
			co, err := coord.New(plan.Fingerprint(), plan.Keys(), coord.Options{LeaseTTL: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			mux := http.NewServeMux()
			mux.Handle("/v1/work/", coord.NewHTTPHandler(co))
			// The workers merge through a shared directory, or through the
			// daemon's store protocol mounted beside the control plane.
			loc := t.TempDir()
			var storeHandler *resultstore.HTTPHandler
			if backend == "http" {
				storeHandler, err = resultstore.NewHTTPHandler(loc)
				if err != nil {
					t.Fatal(err)
				}
				mux.Handle("/v1/store/", storeHandler)
			}
			ts := httptest.NewServer(mux)
			defer ts.Close()
			if backend == "http" {
				loc = ts.URL
			}

			// The dead worker leases units and vanishes: no heartbeat, no
			// complete, nothing written to the store.
			dead := co.Lease("dead", 3)
			if len(dead.Units) == 0 {
				t.Fatalf("dead worker got no units: %+v", dead)
			}

			type result struct {
				stats coord.WorkerStats
				err   error
			}
			done := make(chan result, 2)
			for _, name := range []string{"survivor-0", "survivor-1"} {
				go func(name string) {
					stats, err := stealWorker(ts.URL, loc, name, ids...)
					done <- result{stats, err}
				}(name)
			}
			total := 0
			for i := 0; i < 2; i++ {
				r := <-done
				if r.err != nil {
					t.Fatal(r.err)
				}
				total += r.stats.Units
			}
			if total != len(plan.Units) {
				t.Fatalf("survivors completed %d of %d units", total, len(plan.Units))
			}

			cs := co.Stats()
			if cs.Done != len(plan.Units) {
				t.Fatalf("coordinator not drained: %+v", cs)
			}
			if cs.Recovered == 0 || cs.Expired == 0 {
				t.Fatalf("dead worker's lease never recovered: %+v", cs)
			}

			// Merge render from the store the survivors filled:
			// byte-identical, nothing recomputed.
			st, err := resultstore.Open(loc)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fastConfig()
			cfg.Store = st
			var merged bytes.Buffer
			if err := RunSpecs(cfg, &merged, ids...); err != nil {
				t.Fatal(err)
			}
			if merged.String() != ref.String() {
				t.Fatalf("work-stealing render differs from single-process run:\n--- single\n%s\n--- stolen\n%s", ref.String(), merged.String())
			}
			if rs := st.Stats(); rs.Puts != 0 || rs.Misses != 0 || rs.Hits == 0 {
				t.Fatalf("merge render recomputed units: %+v", rs)
			}
			if storeHandler != nil {
				if hs := storeHandler.Stats(); hs.Puts == 0 || hs.Gets == 0 || hs.Rejected != 0 {
					t.Fatalf("store server stats %+v", hs)
				}
			}
		})
	}
}
