package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestMetricsDeltasFromARealServerExposition(t *testing.T) {
	u := universeForTest(t)
	srv, err := newServer(u.data.Matrix, u.data.Characteristics)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	scrape := func() prom {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		p, err := parseProm(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rank := func(body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	before := scrape()
	body := `{"family":"Intel Xeon","app":"gcc","method":"NN^T","top":3}`
	rank(body)                                                           // miss: one fit
	rank(body)                                                           // rank-cache hit
	rank(`{"family":"Intel Xeon","app":"gcc","method":"nnt","top":4}`)   // registry hit
	rank(`{"family":"Intel Xeon","app":"mcf","method":"SPL^T","top":3}`) // second fit
	after := scrape()

	d := after.sub(before)
	if got := d["dtrank_http_request_seconds_count"+rankRoute]; got != 4 {
		t.Fatalf("/v1/rank count delta %v, want 4", got)
	}
	m := serveMetrics(d, after)
	want := map[string]float64{
		"serve.rankcache.hit_ratio":   0.25,
		"serve.registry.hit_ratio":    1.0 / 3,
		"serve.registry.fits_per_req": 0.5,
	}
	for name, v := range want {
		if got := m[name]; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if m["serve.handler_ms_mean"] <= 0 || m["serve.fit_ms_mean.nnt"] <= 0 || m["serve.fit_ms_mean.splt"] <= 0 {
		t.Errorf("handler or fit means not positive: %v", m)
	}
	if m["serve.fit_ms_mean.mlpt"] != 0 {
		t.Errorf("no MLP^T fit ran, yet its mean is %v", m["serve.fit_ms_mean.mlpt"])
	}
}

func TestClaimsFailAPhaseThatMissesItsTraffic(t *testing.T) {
	w := rankWorkload{name: "rank-cold", claims: []claim{noRankCacheHits, fitPerRequest}}
	p := &phase{attempted: 11, failed: 1}
	cases := []struct {
		d     prom
		fails int64
	}{
		{prom{"dtrank_registry_fits_total": 10}, 0},
		{prom{"dtrank_registry_fits_total": 9}, 1},
		{prom{"dtrank_registry_fits_total": 10, "dtrank_rankcache_hits_total": 1}, 1},
	}
	for _, c := range cases {
		res := newResult()
		w.verify(&env{log: io.Discard}, res, c.d, p)
		if res.failed != c.fails {
			t.Errorf("deltas %v: %d failures, want %d (%v)", c.d, res.failed, c.fails, res.problems)
		}
	}
}
