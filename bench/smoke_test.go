package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultstore"
)

// inProcessStarter serves an in-process serve.Server, configured as
// dtrankd's defaults configure the daemon, on a loopback listener.
func inProcessStarter(u *universe) starter {
	return func(context.Context) (*daemon, error) {
		srv, err := newServer(u.data.Matrix, u.data.Characteristics)
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		return &daemon{url: ts.URL, pid: os.Getpid(), stop: func() error {
			ts.Close()
			srv.Close()
			return nil
		}}, nil
	}
}

// inProcessSpecRunner renders through experiments.RunSpecs in this
// process, the library path `dtrank run` wraps.
func inProcessSpecRunner() specRunner {
	return func(ctx context.Context, specs, dir string) (specRun, error) {
		st, err := resultstore.Open(dir)
		if err != nil {
			return specRun{}, err
		}
		cfg := specConfig()
		cfg.Store = st
		var out bytes.Buffer
		t0 := time.Now()
		err = experiments.RunSpecs(cfg, &out, specIDs(specs)...)
		run := specRun{stdout: out.Bytes(), wall: time.Since(t0), computed: st.Stats().Puts}
		if err != nil {
			return run, err
		}
		run.peakMiB, err = procPeakMiB(os.Getpid())
		return run, err
	}
}

// TestSmokeRunsEveryWorkload drives every workload, untraced and traced,
// against in-process servers and the in-process spec runner, and checks
// that each run reports exactly the metrics BENCHMARK.json names, with
// their units, and that no operation failed.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	u := universeForTest(t)
	for _, trace := range []bool{false, true} {
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		for _, w := range workloads {
			e := &env{seed: 1, phase: 200 * time.Millisecond, trace: trace, sz: smokeSizes, u: u,
				start: inProcessStarter(u), spec: inProcessSpecRunner(), work: t.TempDir(), log: io.Discard}
			if err := os.MkdirAll(e.work+"/spans", 0o755); err != nil {
				t.Fatal(err)
			}
			res, err := w.run(context.Background(), e)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", w.name, trace, res.failed, res.attempted, res.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			line := res.toLine(defs)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json names %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s in %s, BENCHMARK.json says %s", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
