package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// senders is the load generator's concurrency: at most this many sender
// goroutines over this many connections, one per core of the 2-core host
// the baselines were measured on.
const senders = 2

// requestTimeout bounds one request; a request that times out failed.
const requestTimeout = 30 * time.Second

// client issues POST /v1/rank over a bounded connection pool.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{Proxy: nil, MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one answered request.
type reply struct {
	status int
	etag   string
	body   []byte
}

func (c *client) rank(ctx context.Context, body []byte, etag string, trace uint64) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/rank", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if trace != 0 {
		req.Header.Set(obs.TraceHeader, fmt.Sprintf("%016x", trace))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: b}, err
}

// get fetches path and returns the body of a 200 response.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

// load describes one measured phase: a closed loop in which each of the
// `senders` goroutines issues its next request as soon as the previous
// one returns, the way scripts and tools that wait for each reply call
// dtrankd.
type load struct {
	first int64         // stream index of the phase's first request
	dur   time.Duration // phase length
	tr    *tracer       // non-nil: every request gets an http.roundtrip root span
}

// sample is one request's outcome.
type sample struct {
	done time.Duration // completion, since the phase started
	ms   float64       // latency; +Inf for a failed request
}

// phase is the outcome of one measured phase.
type phase struct {
	attempted, failed int64
	next              int64 // stream index after the phase's last request
	samples           []sample
	wall              time.Duration
}

// judge accepts or rejects one reply to request i.
type judge func(i int64, req request, rep reply) bool

func (l load) run(ctx context.Context, c *client, st stream, etags []string, ok judge) *phase {
	var next atomic.Int64
	next.Store(l.first)
	start := time.Now()
	deadline := start.Add(l.dur)
	parts := make([]phase, senders)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				req := st.at(i)
				etag := ""
				if req.inm {
					etag = etags[req.shape]
				}
				sp := l.tr.begin("http.roundtrip", nil)
				var trace uint64
				if sp != nil {
					trace = sp.trace
				}
				t0 := time.Now()
				rep, err := c.rank(ctx, req.body, etag, trace)
				t1 := time.Now()
				l.tr.end(sp)
				s := sample{done: t1.Sub(start), ms: ms(t1.Sub(t0))}
				p.attempted++
				if err != nil || !ok(i, req, rep) {
					p.failed++
					s.ms = math.Inf(1)
				}
				p.samples = append(p.samples, s)
			}
		}(&parts[w])
	}
	wg.Wait()
	out := &phase{wall: time.Since(start), next: next.Load()}
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		out.samples = append(out.samples, p.samples...)
	}
	return out
}

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.ms
	}
	return out
}

// Windows of a phase: each holds at least windowMin requests, so that its
// p90 has ten samples beyond it. A phase has an odd number of windows, at
// most windowMax, so that their median is one window's value.
const (
	windowMin = 100
	windowMax = 19
)

// summary is a phase's end-to-end reading. The phase is cut into equal
// time windows and each metric is the median of its per-window values:
// on a shared host a neighbour slows the machine for seconds at a time,
// and the median across windows sets such stretches aside, as long as
// they cover under half the phase, instead of averaging them in.
type summary struct {
	opsPerS, p50, p90 float64
}

func (p *phase) summarize() summary {
	k := min(max(len(p.samples)/windowMin, 1), windowMax)
	k -= 1 - k%2
	width := p.wall / time.Duration(k)
	lat := make([][]float64, k)
	good := make([]float64, k)
	for _, s := range p.samples {
		w := min(int(s.done/width), k-1)
		lat[w] = append(lat[w], s.ms)
		if !math.IsInf(s.ms, 1) {
			good[w]++
		}
	}
	var ops, p50, p90 []float64
	for w := range lat {
		ops = append(ops, good[w]/width.Seconds())
		if len(lat[w]) > 0 {
			p50 = append(p50, median(lat[w]))
			p90 = append(p90, percentile(lat[w], 0.90))
		}
	}
	return summary{opsPerS: median(ops), p50: median(p50), p90: median(p90)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1). A
// failed request is +Inf, so it sorts last and counts as missing every
// latency limit. It returns NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
