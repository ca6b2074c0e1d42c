package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/transpose"
)

// freshApp is the fold name the server gives an application supplied as
// raw scores.
const freshApp = "application-of-interest"

// freshScorer is the serving interface of the fresh-scores models.
type freshScorer interface {
	PredictTargetsWith(appOnPred, dst []float64) error
}

// replayRun replays the first w.replay requests of the stream in-process
// on one goroutine, twice: through Server.Handler().ServeHTTP as one
// serve.handler span each, then decomposed into the public calls the
// handler makes, in its order, against a private registry. The
// decomposed replay's bodies must equal the handler's.
func (w rankWorkload) replayRun(ctx context.Context, e *env, tr *tracer, res *result) error {
	m, chars := e.u.data.Matrix, e.u.data.Characteristics
	srv, err := newServer(m, chars)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	serveHTTP := func(body []byte, etag string, sp *span) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		if etag != "" {
			r.Header.Set("If-None-Match", etag)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		tr.end(sp)
		return rec
	}
	warm := w.stream.warmup()
	etags := make([]string, len(warm))
	for i, body := range warm {
		rec := serveHTTP(body, "", nil)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay warm-up: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		etags[i] = rec.Header().Get("ETag")
	}
	handled := make([][]byte, w.replay)
	for i := range handled {
		req := w.stream.at(int64(i))
		etag, want := "", http.StatusOK
		if req.inm {
			etag, want = etags[req.shape], http.StatusNotModified
		}
		rec := serveHTTP(req.body, etag, tr.begin("serve.handler", nil))
		res.attempted++
		if rec.Code != want {
			res.fail("replayed request %d: status %d, want %d", i, rec.Code, want)
		}
		handled[i] = rec.Body.Bytes()
	}

	rp := &rankReplay{m: m, chars: chars, hash: m.Hash(), reg: serve.NewRegistry(serve.DefaultMaxModels)}
	if w.full {
		for _, body := range warm { // fit what the daemon fitted during set-up, untraced
			if _, err := rp.rank(ctx, nil, body, true); err != nil {
				return fmt.Errorf("replay warm-up: %w", err)
			}
		}
	}
	for i := range handled {
		got, err := rp.rank(ctx, tr, w.stream.at(int64(i)).body, w.full)
		res.attempted++
		switch {
		case err != nil:
			res.fail("replayed request %d: %v", i, err)
		case w.full && !bytes.Equal(got, handled[i]):
			res.fail("replayed request %d: decomposed body differs from the handler's", i)
		}
	}
	return nil
}

// rankReplay answers rank requests the way Server.Rank and the rank
// handler do, through the same public functions, with a span around each.
type rankReplay struct {
	m     *dataset.Matrix
	chars map[string][]float64
	hash  string
	reg   *serve.Registry
}

// rank replays one request body under a replay.rank root span. With full
// unset it stops after decoding.
func (rp *rankReplay) rank(ctx context.Context, tr *tracer, body []byte, full bool) ([]byte, error) {
	root := tr.begin("replay.rank", nil)
	defer tr.end(root)

	sp := tr.begin("serve.decode", root)
	var req serve.RankRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	var canon string
	if err == nil {
		canon, err = serve.CanonicalMethod(req.Method)
	}
	tr.end(sp)
	if err != nil || !full {
		return nil, err
	}

	sp = tr.begin("dataset.family_split", root)
	targets, predictive, err := rp.m.FamilySplit(req.Family)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("transpose.fold", root)
	var (
		fold     transpose.Fold
		appOnTgt []float64
	)
	if req.App != "" {
		fold, appOnTgt, err = transpose.NewFold(predictive, targets, req.App, rp.chars)
	} else {
		fold = transpose.Fold{AppName: freshApp, Pred: predictive, AppOnPred: req.Scores, Tgt: targets}
		err = fold.Validate()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	slug := methodSlug(canon)
	key := serve.Key{Snapshot: rp.hash, Family: req.Family, App: req.App, Method: canon, Seed: datasetSeed}
	predicted := make([]float64, targets.NumMachines())
	q := tr.begin("serve.registry_query", root)
	err = rp.reg.Query(ctx, key, func() (transpose.Model, error) {
		sp := tr.begin("transpose.fit."+slug, q)
		defer tr.end(sp)
		p, _, err := serve.NewPredictor(canon, datasetSeed)
		if err != nil {
			return nil, err
		}
		ft, ok := p.(transpose.Fitter)
		if !ok {
			return nil, fmt.Errorf("method %s has no Fit", canon)
		}
		return ft.Fit(fold)
	}, func(model transpose.Model) error {
		sp := tr.begin("transpose.predict."+slug, q)
		defer tr.end(sp)
		if len(req.Scores) > 0 {
			fs, ok := model.(freshScorer)
			if !ok {
				return fmt.Errorf("%s model cannot predict from raw scores", canon)
			}
			return fs.PredictTargetsWith(req.Scores, predicted)
		}
		return model.PredictTargets(predicted)
	})
	tr.end(q)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("serve.build_response", root)
	resp, err := serve.BuildRankResponse(req.Family, req.App, canon, rp.hash, targets.Machines, predicted, appOnTgt, req.Top)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("serve.encode", root)
	var buf bytes.Buffer
	err = serve.WriteRankResponse(&buf, resp)
	tr.end(sp)
	return buf.Bytes(), err
}
