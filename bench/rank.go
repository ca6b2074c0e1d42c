package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/serve"
)

// rankWorkload is one of the three /v1/rank traffic mixes.
type rankWorkload struct {
	name   string
	stream stream
	replay int // requests the traced run replays in-process
	// full: the replay decomposes the compute path (decode, split, fold,
	// registry, fit, predict, build, encode). rank-hot's replies come from
	// the rank cache, whose lookup is not public, so its replay times the
	// handler and the decode alone.
	full bool
	// claims are the traffic ratios that make the workload what it is; a
	// measured phase outside any of them fails the run.
	claims []claim
}

// claim is one traffic ratio a measured phase must hold, read from the
// daemon's /metrics deltas over the phase and the number of requests the
// phase had answered as expected. Each counter it reads moves before the
// daemon writes its reply, so all of a phase's requests are counted by the
// time the phase ends.
type claim struct {
	name   string
	lo, hi float64
	value  func(d prom, answered float64) float64
}

var (
	// rankCacheShare counts 304s too: a revalidation is answered from the
	// rank cache.
	rankCacheShare = claim{"rank-cache share", 0.999, 1, func(d prom, n float64) float64 {
		return ratio(d["dtrank_rankcache_hits_total"], n)
	}}
	noRankCacheHits = claim{"rank-cache hits", 0, 0, func(d prom, _ float64) float64 {
		return d["dtrank_rankcache_hits_total"]
	}}
	registryHits = claim{"registry hit ratio", 0.999, 1, func(d prom, _ float64) float64 {
		h := d["dtrank_registry_hits_total"]
		return ratio(h, h+d["dtrank_registry_misses_total"])
	}}
	fitPerRequest = claim{"fits per request", 1, 1, func(d prom, n float64) float64 {
		return ratio(d["dtrank_registry_fits_total"], n)
	}}
)

// verify checks a measured phase against the workload's claims and logs
// what it read.
func (w rankWorkload) verify(e *env, res *result, d prom, p *phase) {
	answered := float64(p.attempted - p.failed)
	for _, c := range w.claims {
		v := c.value(d, answered)
		fmt.Fprintf(e.log, "# %s: %s %.6f over %.0f requests\n", w.name, c.name, v, answered)
		if v < c.lo || v > c.hi {
			res.fail("%s %v over %.0f requests, want it in [%v, %v]", c.name, v, answered, c.lo, c.hi)
		}
	}
}

// kept collects the replies sampled for the output check.
type kept struct {
	mu     sync.Mutex
	bodies map[int64][]byte
}

func (k *kept) put(i int64, b []byte) {
	k.mu.Lock()
	k.bodies[i] = b
	k.mu.Unlock()
}

// judge returns the per-reply check of the measured phases: the expected
// status, and for rank-hot a body byte-identical to the shape's warm-up
// reply (every hot reply is checked that way; check compares the warm-up
// replies with the in-process server afterwards).
func (w rankWorkload) judge(warm []reply, k *kept) judge {
	return func(i int64, req request, rep reply) bool {
		if req.inm {
			return rep.status == 304 && len(rep.body) == 0
		}
		if rep.status != 200 {
			return false
		}
		if req.shape >= 0 {
			return bytes.Equal(rep.body, warm[req.shape].body)
		}
		if w.stream.checked(i) {
			k.put(i, rep.body)
		}
		return true
	}
}

// setupMax caps the set-ups of one run; rank-cold's take a few
// milliseconds each.
const setupMax = 64

// setUp starts a daemon and sends the warm-up requests, repeatedly: at
// least atLeast times, and while the set-ups so far took under budget, so
// that cheap set-ups are sampled often enough for a steady median. It
// returns the last daemon with the median set-up time. Set-up is timed
// from exec to the last warm-up reply.
func (w rankWorkload) setUp(ctx context.Context, e *env, atLeast int, budget time.Duration) (*daemon, []reply, float64, error) {
	var times []float64
	spent := time.Duration(0)
	for k := 0; ; k++ {
		t0 := time.Now()
		d, err := e.start(ctx)
		if err != nil {
			return nil, nil, 0, err
		}
		c := newClient(d.url)
		warm, err := warmUp(ctx, c, w.stream.warmup())
		c.close()
		took := time.Since(t0)
		times = append(times, took.Seconds())
		spent += took
		if err != nil {
			d.stop()
			return nil, nil, 0, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		if k+1 >= atLeast && (spent >= budget || k+1 == setupMax) {
			fmt.Fprintf(e.log, "# %s: %d set-ups, median %.4fs\n", w.name, k+1, median(times))
			return d, warm, median(times), nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, 0, err
		}
	}
}

// warmUp sends bodies over `senders` connections and returns the replies
// in order; any reply other than 200 is an error.
func warmUp(ctx context.Context, c *client, bodies [][]byte) ([]reply, error) {
	out := make([]reply, len(bodies))
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bodies); i += senders {
				rep, err := c.rank(ctx, bodies[i], "", 0)
				if err == nil && rep.status != 200 {
					err = fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
				}
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = rep
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// counters are the process and /metrics readings taken around a phase.
type counters struct {
	daemonCPU, selfCPU time.Duration
	metrics            prom
}

func read(ctx context.Context, c *client, d *daemon) (counters, error) {
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return counters{}, err
	}
	m, err := parseProm(bytes.NewReader(body))
	if err != nil {
		return counters{}, err
	}
	cpu, err := procCPU(d.pid)
	return counters{daemonCPU: cpu, selfCPU: selfCPU(), metrics: m}, err
}

func runRank(ctx context.Context, e *env, w rankWorkload) (*result, error) {
	res := newResult()
	setups, budget := e.sz.setups, e.sz.setupBudget
	if e.trace {
		setups, budget = 1, 0
	}
	d, warm, setup, err := w.setUp(ctx, e, setups, budget)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	c := newClient(d.url)
	defer c.close()
	etags := make([]string, len(warm))
	for i, r := range warm {
		etags[i] = r.etag
	}
	k := &kept{bodies: map[int64][]byte{}}
	ok := w.judge(warm, k)
	tally := func(p *phase) *phase {
		res.attempted += p.attempted
		res.failed += p.failed
		if p.failed > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d of %d requests failed", p.failed, p.attempted))
		}
		return p
	}

	// The untraced measured phase gives the end-to-end metrics.
	before, err := read(ctx, c, d)
	if err != nil {
		return nil, err
	}
	measured := tally(load{dur: e.phase}.run(ctx, c, w.stream, etags, ok))
	after, err := read(ctx, c, d)
	if err != nil {
		return nil, err
	}
	w.verify(e, res, after.metrics.sub(before.metrics), measured)
	sum := measured.summarize()
	res.values["setup_s"] = setup
	res.values["ops_per_s"] = sum.opsPerS
	res.values["p50_ms"] = sum.p50
	res.values["p90_ms"] = sum.p90

	var tr *tracer
	if e.trace {
		// The traced run repeats the latency phase in four halves that
		// alternate untraced and traced, so drift in the daemon's state
		// does not read as tracing overhead. A traced request carries a
		// root span whose id is sent as X-Dtrank-Trace; the daemon's
		// counters are read around each traced half.
		tr = newTracer()
		l := load{first: measured.next, dur: e.phase / 2}
		var plain, traced []float64
		var tracedOps int64
		var delta prom
		var daemonCPU, selfCPU time.Duration
		for half := 0; half < 4; half++ {
			l.tr = nil
			if half%2 == 1 {
				l.tr = tr
			}
			before, err := read(ctx, c, d)
			if err != nil {
				return nil, err
			}
			p := tally(l.run(ctx, c, w.stream, etags, ok))
			l.first = p.next
			if l.tr == nil {
				plain = append(plain, p.latencies()...)
				continue
			}
			after, err := read(ctx, c, d)
			if err != nil {
				return nil, err
			}
			w.verify(e, res, after.metrics.sub(before.metrics), p)
			tracedOps += p.attempted
			traced = append(traced, p.latencies()...)
			daemonCPU += after.daemonCPU - before.daemonCPU
			selfCPU += after.selfCPU - before.selfCPU
			delta = after.metrics.sub(before.metrics).add(delta)
			if half == 3 {
				for name, v := range serveMetrics(delta, after.metrics) {
					res.values[name] = v
				}
			}
		}
		res.values["dtrankd.cpu_ms_per_op"] = ms(daemonCPU) / float64(tracedOps)
		res.values["loadgen.cpu_ms_per_op"] = ms(selfCPU) / float64(tracedOps)
		res.values["trace.overhead_p50"] = median(traced)/median(plain) - 1
	}
	if res.values["rss_mb"], err = procPeakMiB(d.pid); err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping dtrankd: %w", err)
	}

	if err := w.check(ctx, e, warm, k, res); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := w.replayRun(ctx, e, tr, res); err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		if err := writeJSONL(e.spanFile(w.name), spans); err != nil {
			return nil, err
		}
		res.addSpans(spans, "replay.rank")
	}
	return res, nil
}

// newServer builds an in-process server configured as dtrankd's defaults
// configure the daemon, logging at info level to nowhere.
func newServer(m *dataset.Matrix, chars map[string][]float64) (*serve.Server, error) {
	logger, err := obs.NewLogger(io.Discard, "text", "info")
	if err != nil {
		return nil, err
	}
	return serve.NewServer(m, chars, serve.Options{Seed: datasetSeed, Logger: logger})
}

// check compares the warm-up replies and the sampled replies byte for byte
// with what an in-process serve.Server answers through Rank and
// WriteRankResponse, the parity contract dtrankd shares with `dtrank rank
// -json`.
func (w rankWorkload) check(ctx context.Context, e *env, warm []reply, k *kept, res *result) error {
	ref, err := newServer(e.u.data.Matrix, e.u.data.Characteristics)
	if err != nil {
		return err
	}
	defer ref.Close()
	compare := func(what string, body, got []byte) error {
		var req serve.RankRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		resp, err := ref.Rank(ctx, req)
		if err != nil {
			return fmt.Errorf("in-process rank of %s: %w", body, err)
		}
		var want bytes.Buffer
		if err := serve.WriteRankResponse(&want, resp); err != nil {
			return err
		}
		if !bytes.Equal(got, want.Bytes()) {
			res.fail("%s: served body differs from the in-process answer for %s", what, body)
		}
		return nil
	}
	for i, body := range w.stream.warmup() {
		if err := compare(fmt.Sprintf("warm-up request %d", i), body, warm[i].body); err != nil {
			return err
		}
	}
	for i, got := range k.bodies {
		if err := compare(fmt.Sprintf("request %d", i), w.stream.at(i).body, got); err != nil {
			return err
		}
	}
	return nil
}
