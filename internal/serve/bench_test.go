package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/synth"
)

// BenchmarkServeRank measures the serving layer end to end over real HTTP
// on the paper's 29×117 database: a cold registry (every request pays a
// full fit) versus a warm registry (the model is fitted once and every
// request is answered from it), and warm serving under one versus many
// concurrent clients. The warm/cold ratio is the registry's whole point —
// the BENCH snapshot records it.
func BenchmarkServeRank(b *testing.B) {
	data, err := synth.Generate(synth.DefaultOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(RankRequest{Family: "Intel Xeon", App: "gcc", Method: "NN^T", Top: 10})
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, client *http.Client, url string) {
		b.Helper()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out RankResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(out.Ranking) != 10 {
			b.Fatalf("HTTP %d, %d entries", resp.StatusCode, len(out.Ranking))
		}
	}

	b.Run("cold", func(b *testing.B) {
		// A fresh server per iteration: every request misses the registry
		// and pays the fit — the fit-per-request baseline.
		for i := 0; i < b.N; i++ {
			srv, err := NewServer(data.Matrix, data.Characteristics, Options{Seed: 1, RankCache: -1})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			post(b, ts.Client(), ts.URL+"/v1/rank")
			ts.Close()
			srv.Close()
		}
	})

	// The warm variants disable the response cache so they keep measuring
	// what they always did — the registry path: fit once, predict and
	// encode per request. The cached variants below measure the cache.
	newWarm := func(b *testing.B, opts Options) (*httptest.Server, *Server) {
		b.Helper()
		srv, err := NewServer(data.Matrix, data.Characteristics, opts)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		post(b, ts.Client(), ts.URL+"/v1/rank") // prime the registry (and cache, if enabled)
		return ts, srv
	}

	b.Run("warm", func(b *testing.B) {
		ts, srv := newWarm(b, Options{Seed: 1, RankCache: -1})
		defer ts.Close()
		defer srv.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.Client(), ts.URL+"/v1/rank")
		}
	})

	b.Run("warm-8clients", func(b *testing.B) {
		ts, srv := newWarm(b, Options{Seed: 1, RankCache: -1})
		defer ts.Close()
		defer srv.Close()
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := ts.Client()
			for pb.Next() {
				post(b, client, ts.URL+"/v1/rank")
			}
		})
	})

	b.Run("cached", func(b *testing.B) {
		// Response-cache hit over real HTTP: fit, predict and JSON encode
		// all skipped; the remaining cost is the HTTP round trip plus a
		// map lookup.
		ts, srv := newWarm(b, Options{Seed: 1})
		defer ts.Close()
		defer srv.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.Client(), ts.URL+"/v1/rank")
		}
		b.StopTimer()
		if srv.cache.hits.Value() < int64(b.N) {
			b.Fatalf("only %d cache hits in %d requests", srv.cache.hits.Value(), b.N)
		}
	})

	b.Run("cached-inproc", func(b *testing.B) {
		// The same cache hit without the HTTP round trip — the handler
		// cost a hit actually adds, free of the localhost RTT floor the
		// /cached variant sits on.
		srv, err := NewServer(data.Matrix, data.Characteristics, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		do := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body)))
			return rec
		}
		if rec := do(); rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := do(); rec.Code != http.StatusOK {
				b.Fatalf("HTTP %d", rec.Code)
			}
		}
		b.StopTimer()
		if srv.cache.hits.Value() < int64(b.N) {
			b.Fatalf("only %d cache hits in %d requests", srv.cache.hits.Value(), b.N)
		}
	})

	b.Run("fresh-inproc", func(b *testing.B) {
		// Ranking from your own scores without the HTTP round trip: every
		// body is unique, so the rank cache (at its default size) misses,
		// and every model is resident, so the request decodes, looks its
		// model up, predicts and encodes. The bodies cycle over every
		// family and fresh-scores method; the first score of each carries
		// the iteration number in fixed-width digits.
		srv, err := NewServer(data.Matrix, data.Characteristics, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		do := func(body []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		const digits = 15
		gcc, err := data.Matrix.BenchmarkIndex("gcc")
		if err != nil {
			b.Fatal(err)
		}
		var (
			bodies [][]byte
			at     []int // offset of each body's iteration digits
		)
		for _, family := range data.Matrix.Families() {
			_, pred, err := data.Matrix.FamilySplit(family)
			if err != nil {
				b.Fatal(err)
			}
			rest, err := json.Marshal(pred.Row(gcc)[1:])
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range []string{"NN^T", "SPL^T", "kNN^M"} {
				head, err := json.Marshal(RankRequest{Family: family, Method: m})
				if err != nil {
					b.Fatal(err)
				}
				body := append(head[:len(head)-1], `,"scores":[1.`...)
				at = append(at, len(body))
				body = append(body, bytes.Repeat([]byte("0"), digits)...)
				body = append(append(append(body, ','), rest[1:]...), '}')
				bodies = append(bodies, body)
				do(body) // fit the model outside the timer
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(bodies)
			for j, n := at[k]+digits-1, i; j >= at[k]; j, n = j-1, n/10 {
				bodies[k][j] = byte('0' + n%10)
			}
			do(bodies[k])
		}
	})

	b.Run("coalesced-8clients", func(b *testing.B) {
		// MLP^T misses under concurrency: the response cache is disabled so
		// every request reaches the registry, and the 8 clients use 8
		// distinct top clamps — overlapping requests still share one
		// prediction, since the coalescing key ignores top.
		srv, err := NewServer(data.Matrix, data.Characteristics, Options{Seed: 1, RankCache: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var worker atomic.Int64
		postTop := func(b *testing.B, client *http.Client, top int) {
			b.Helper()
			body, err := json.Marshal(RankRequest{Family: "Intel Xeon", App: "gcc", Method: "MLP^T", Top: top})
			if err != nil {
				b.Fatal(err)
			}
			resp, err := client.Post(ts.URL+"/v1/rank", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var out RankResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(out.Ranking) != top {
				b.Fatalf("HTTP %d, %d entries for top %d", resp.StatusCode, len(out.Ranking), top)
			}
		}
		postTop(b, ts.Client(), 9) // prime the MLP^T fit outside the timer
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := ts.Client()
			top := int(worker.Add(1)-1)%8 + 1
			for pb.Next() {
				postTop(b, client, top)
			}
		})
	})
}

// BenchmarkServeReports measures the report-serving fast path on the
// cheapest registered spec with a pre-warmed result store: the render
// path (response-cache miss — plan, read every unit from the store,
// render and encode, but compute nothing), the cached path (the handler
// writes stored bytes), and conditional revalidation (the 304
// short-circuit, which touches neither cache nor store). The cached/render
// ratio is the report cache's whole point; 304/cached shows what pollers
// holding an ETag save on top — the BENCH snapshot records all three.
func BenchmarkServeReports(b *testing.B) {
	data, err := synth.Generate(synth.DefaultOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(data.Matrix, data.Characteristics, Options{
		Seed:        1,
		StoreDir:    b.TempDir(),
		ReportFast:  true,
		ReportDraws: 2,
		ReportMaxK:  3,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	get := func(header map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/reports/"+cheapSpec, nil)
		for k, v := range header {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	// Prime outside any timer: computes the spec's units into the store
	// and fills the response cache.
	first := get(nil)
	if first.Code != http.StatusOK {
		b.Fatalf("HTTP %d: %s", first.Code, first.Body.String())
	}
	etag := first.Header().Get("ETag")

	b.Run("render", func(b *testing.B) {
		// Response-cache miss over a fully warm store: every iteration
		// re-plans, re-reads and re-renders, computing nothing.
		before := srv.reportUnitsComputed.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.reports.purge()
			if rec := get(nil); rec.Code != http.StatusOK {
				b.Fatalf("HTTP %d", rec.Code)
			}
		}
		b.StopTimer()
		if n := srv.reportUnitsComputed.Value() - before; n != 0 {
			b.Fatalf("render benchmark computed %d units, want 0 (warm store)", n)
		}
	})

	b.Run("cached", func(b *testing.B) {
		if rec := get(nil); rec.Code != http.StatusOK {
			b.Fatal("prime failed")
		}
		before := srv.reports.hits.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := get(nil); rec.Code != http.StatusOK {
				b.Fatalf("HTTP %d", rec.Code)
			}
		}
		b.StopTimer()
		if hits := srv.reports.hits.Value() - before; hits < int64(b.N) {
			b.Fatalf("only %d cache hits in %d requests", hits, b.N)
		}
	})

	b.Run("revalidate-304", func(b *testing.B) {
		header := map[string]string{"If-None-Match": etag}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := get(header); rec.Code != http.StatusNotModified {
				b.Fatalf("HTTP %d, want 304", rec.Code)
			}
		}
	})
}
