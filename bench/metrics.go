package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/method"
)

// prom is one scrape of GET /metrics: series id (name plus rendered
// labels, exactly as exposed) to value.
type prom map[string]float64

func parseProm(r io.Reader) (prom, error) {
	out := prom{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub returns p - q per series (a series absent from q counts as 0).
func (p prom) sub(q prom) prom {
	out := make(prom, len(p))
	for k, v := range p {
		out[k] = v - q[k]
	}
	return out
}

// add returns p + q per series.
func (p prom) add(q prom) prom {
	out := make(prom, len(p))
	for k, v := range p {
		out[k] = v + q[k]
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// methodSlug is a method's metric-name suffix: its codec kind (nnt, mlpt,
// splt, gaknn, knnm).
func methodSlug(name string) string {
	d, err := method.Get(name)
	if err != nil {
		return name
	}
	return d.CodecKind
}

const rankRoute = `{route="/v1/rank"}`

// serveMetrics derives the internal/serve per-layer metrics from the
// /metrics deltas of a measured phase (d) and, for model fits, the
// daemon's lifetime totals (life), so rank-hot's set-up fits show too.
func serveMetrics(d, life prom) map[string]float64 {
	reqs := d["dtrank_http_request_seconds_count"+rankRoute]
	hits, misses := d["dtrank_rankcache_hits_total"], d["dtrank_rankcache_misses_total"]
	regHits, regMisses := d["dtrank_registry_hits_total"], d["dtrank_registry_misses_total"]
	out := map[string]float64{
		"serve.handler_ms_mean":              1e3 * ratio(d["dtrank_http_request_seconds_sum"+rankRoute], reqs),
		"serve.rankcache.hit_ratio":          ratio(hits, hits+misses),
		"serve.rankcache.not_modified_ratio": ratio(d["dtrank_rankcache_not_modified_total"], reqs),
		"serve.registry.hit_ratio":           ratio(regHits, regHits+regMisses),
		"serve.registry.fits_per_req":        ratio(d["dtrank_registry_fits_total"], reqs),
		"serve.registry.evictions_per_req":   ratio(d["dtrank_registry_evictions_total"], reqs),
		"serve.coalesced_per_req":            ratio(d["dtrank_coalesced_total"], reqs),
		"serve.batch.queries_per_flush":      ratio(d["dtrank_batched_queries_total"], d["dtrank_batch_flushes_total"]),
		"serve.batch.flush_ms_mean":          1e3 * ratio(d["dtrank_batch_flush_seconds_sum"], d["dtrank_batch_flush_seconds_count"]),
	}
	for _, m := range method.Names() {
		l := `{method="` + m + `"}`
		out["serve.fit_ms_mean."+methodSlug(m)] = 1e3 * ratio(life["dtrank_fit_seconds_sum"+l], life["dtrank_fit_seconds_count"+l])
	}
	return out
}
