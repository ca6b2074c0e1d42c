package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/resultstore"
)

// specGolden pins, for dataset seed 1 and -fast -draws 2 -maxk 3, the
// sha256 of what `dtrank run -spec <specs>` prints (identical cold and
// warm) and how many units a cold run computes.
var specGolden = map[string]struct {
	sha256 string
	units  int64
}{
	"all":    {"5fba9d34b833c1bfa3a15ef79f555208b22d07f2a2dcba8c2370f1d5dbb9bd00", 92},
	"table4": {"2a0b8c98c2ae2928dc7f3bd4e8a8f94f0ae8487e6ff9b46f38bd94afc7118cf7", 12},
}

func sum256(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkSpec fails res unless out is the pinned render and the run
// computed exactly the pinned number of units.
func checkSpec(res *result, what, specs string, out []byte, computed, wantUnits int64) bool {
	ok := true
	if got := sum256(out); got != specGolden[specs].sha256 {
		res.fail("%s run: stdout sha256 %s, want %s", what, got, specGolden[specs].sha256)
		ok = false
	}
	if computed != wantUnits {
		res.fail("%s run: computed %d units, want %d", what, computed, wantUnits)
		ok = false
	}
	return ok
}

// runSpecBatch is the paper-reproduction batch through `dtrank run`: its
// set-up is the cold run that fills an empty result store (repeated, each
// into its own empty store), and its operations are warm runs over the
// last filled store, which only read units and render.
func runSpecBatch(ctx context.Context, e *env) (*result, error) {
	if e.trace {
		return traceSpecBatch(ctx, e)
	}
	res := newResult()
	specs := e.sz.specs
	root := filepath.Join(e.work, "spec-batch")
	defer os.RemoveAll(root)
	var setup, peak []float64
	var dir string
	for k := 0; k < e.sz.setups; k++ {
		dir = filepath.Join(root, strconv.Itoa(k))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		run, err := e.spec(ctx, specs, dir)
		if err != nil {
			return nil, err
		}
		res.attempted++
		checkSpec(res, "cold", specs, run.stdout, run.computed, specGolden[specs].units)
		setup = append(setup, run.wall.Seconds())
		peak = append(peak, run.peakMiB)
		fmt.Fprintf(e.log, "# spec-batch: cold run %d/%d took %.3fs\n", k+1, e.sz.setups, run.wall.Seconds())
	}
	warm := &phase{}
	t0 := time.Now()
	for time.Since(t0) < e.phase && ctx.Err() == nil {
		run, err := e.spec(ctx, specs, dir)
		s := sample{done: time.Since(t0), ms: ms(run.wall)}
		warm.attempted++
		switch {
		case err != nil:
			res.fail("warm run: %v", err)
			s.ms = math.Inf(1)
		case !checkSpec(res, "warm", specs, run.stdout, run.computed, 0):
			s.ms = math.Inf(1)
		}
		warm.samples = append(warm.samples, s)
	}
	warm.wall = time.Since(t0)
	res.attempted += warm.attempted
	sum := warm.summarize()
	res.values["setup_s"] = median(setup)
	res.values["ops_per_s"] = sum.opsPerS
	res.values["p50_ms"] = sum.p50
	res.values["p90_ms"] = sum.p90
	res.values["rss_mb"] = median(peak)
	return res, nil
}

// tracedStore times every Get and Put of the store it wraps as children
// of the span in parent; the executor calls them concurrently.
type tracedStore struct {
	resultstore.Store
	tr     *tracer
	parent atomic.Pointer[span]
}

func (s *tracedStore) Get(key resultstore.Key, v any) (bool, error) {
	sp := s.tr.begin("resultstore.get", s.parent.Load())
	defer s.tr.end(sp)
	return s.Store.Get(key, v)
}

func (s *tracedStore) Put(key resultstore.Key, v, out any) error {
	sp := s.tr.begin("resultstore.put", s.parent.Load())
	defer s.tr.end(sp)
	return s.Store.Put(key, v, out)
}

// traceSpecBatch replays spec-batch in-process: RunReport cold for each
// spec over a traced directory store (the replay.spec root covers these
// and PlanSpecs), then warm RunSpecs renders over the filled directory,
// alternating untraced and traced ones to measure the tracing overhead.
func traceSpecBatch(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	specs := e.sz.specs
	ids := specIDs(specs)
	dir := filepath.Join(e.work, "spec-trace")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	open := func() (*tracedStore, experiments.Config, error) {
		st, err := resultstore.Open(dir)
		cfg := specConfig()
		ts := &tracedStore{Store: st, tr: tr}
		cfg.Store = ts
		return ts, cfg, err
	}
	ts, cfg, err := open()
	if err != nil {
		return nil, err
	}
	units0 := engine.Default().Stats().UnitsDone

	root := tr.begin("replay.spec", nil)
	var text bytes.Buffer
	var computed int64
	for _, id := range ids {
		sp := tr.begin("experiments.report."+id, root)
		ts.parent.Store(sp)
		rep, err := experiments.RunReport(cfg, id)
		tr.end(sp)
		res.attempted++
		if err != nil {
			res.fail("RunReport %s: %v", id, err)
			continue
		}
		text.WriteString(rep.Text)
		computed += rep.Computed
	}
	checkSpec(res, "cold RunReport", specs, text.Bytes(), computed, specGolden[specs].units)
	res.values["experiments.units_computed"] = float64(computed)
	sp := tr.begin("experiments.plan", root)
	_, err = experiments.PlanSpecs(cfg, ids...)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, err
	}

	var plain, traced []float64
	var hits, gets int64
	t0 := time.Now()
	for k := 0; k < 2 || (time.Since(t0) < e.phase && ctx.Err() == nil); k++ {
		ts, cfg, err := open()
		if err != nil {
			return nil, err
		}
		var sp *span
		if k%2 == 0 {
			cfg.Store = ts.Store
		} else {
			sp = tr.begin("experiments.render_warm", nil)
			ts.parent.Store(sp)
		}
		var out bytes.Buffer
		start := time.Now()
		err = experiments.RunSpecs(cfg, &out, ids...)
		d := ms(time.Since(start))
		tr.end(sp)
		res.attempted++
		if err != nil {
			res.fail("warm RunSpecs: %v", err)
			continue
		}
		st := ts.Stats()
		checkSpec(res, "warm RunSpecs", specs, out.Bytes(), st.Puts, 0)
		if k%2 == 0 {
			plain = append(plain, d)
		} else {
			traced = append(traced, d)
			hits, gets = hits+st.Hits, gets+st.Hits+st.Misses
		}
	}
	res.values["resultstore.hit_ratio"] = ratio(float64(hits), float64(gets))
	res.values["engine.units_done"] = float64(engine.Default().Stats().UnitsDone - units0)
	res.values["trace.overhead_p50"] = median(traced)/median(plain) - 1
	spans := tr.snapshot()
	if err := writeJSONL(e.spanFile("spec-batch"), spans); err != nil {
		return nil, err
	}
	res.addSpans(spans, "replay.spec")
	return res, nil
}
