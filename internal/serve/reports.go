package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/synth"
)

// GET /v1/reports/{spec} serves the paper's tables, figures and
// ablations rendered against the daemon's current snapshot — the
// materialised-view surface over the experiment result store. A request
// plans the spec's units, computes only the ones missing from the store
// (Options.StoreDir, shared with /v1/store/ and any `dtrank run -cache`
// process), renders from the warm store, and caches the rendered body:
//
//   - text/plain (the default) is byte-identical to `dtrank run -spec
//     <id>` with the same seed and budget flags — CI-enforced;
//   - application/json (Accept: application/json) wraps the same text in
//     a structured envelope with the render's provenance.
//
// Each representation carries a strong ETag computable from (snapshot
// hash, spec, budget, representation) alone, so If-None-Match
// revalidation answers 304 through the same writeTagged path as /v1/rank
// without planning, executing or rendering anything. Rendered bodies live
// in the server's report LRU, and concurrent cold requests for one
// (snapshot, spec, budget) join one render flight whose bodies every
// waiter shares.

// Report representations. The representation folds into the cache key
// and the entity tag: the text and JSON bodies of one report are
// different entities, each with its own strong validator.
const (
	reportReprText = "text"
	reportReprJSON = "json"

	reportCTText = "text/plain; charset=utf-8"
	reportCTJSON = "application/json"
)

// ReportResponse is the body of GET /v1/reports/{spec} with Accept:
// application/json. Every field is deterministic in (snapshot, spec,
// budget, seed) — per-render counters live in /metrics and /v1/status,
// not here — so the body can be cached and revalidated like the text one.
type ReportResponse struct {
	// Spec and Title identify the rendered spec.
	Spec  string `json:"spec"`
	Title string `json:"title"`
	// Snapshot is the served snapshot's hash (the ETag's first half).
	Snapshot string `json:"snapshot"`
	// Dataset is the fingerprint the report's units are keyed under in
	// the result store: the synthesis recipe's (synth.Options
	// Fingerprint) while the daemon serves the dataset it synthesised
	// from its seed, the data's own (matrix plus workload
	// characteristics, which the snapshot hash does not cover) after a
	// POST /v1/snapshot or under -data.
	Dataset string `json:"dataset"`
	// Budget is the training-budget regime: "" full, "fast" reduced.
	Budget string `json:"budget"`
	// Seed is the run's deterministic seed.
	Seed int64 `json:"seed"`
	// Units is the number of result-store units the report reads.
	Units int `json:"units"`
	// Text is the rendered report, byte-identical to the text/plain body.
	Text string `json:"text"`
}

// rendered holds both representations of one report render.
type rendered struct {
	text, json []byte
}

// reportBudget is the budget component of every report unit key and
// entity tag, mirroring experiments.Config's "fast" convention.
func (s *Server) reportBudget() string {
	if s.opts.ReportFast {
		return "fast"
	}
	return ""
}

// reportConfig assembles the experiments configuration of one render:
// the served snapshot injected as the dataset, the server's shared
// report store, and the budget flags the daemon was started with. While
// the snapshot is the one synthesised from the seed, experiments keys
// its units by the synthesis recipe, exactly as the CLI does for the
// same flags, which is what makes the store shareable and the text
// byte-identical.
func (s *Server) reportConfig(snap *snapshot) experiments.Config {
	return experiments.Config{
		Seed:        s.opts.Seed,
		Fast:        s.opts.ReportFast,
		RandomDraws: s.opts.ReportDraws,
		MaxK:        s.opts.ReportMaxK,
		Store:       s.rstore,
		Data:        &synth.Data{Matrix: snap.matrix, Characteristics: snap.chars},
	}
}

// negotiateReport picks the response representation: JSON when the
// Accept header asks for application/json, text otherwise (reports are
// terminal artefacts first).
func negotiateReport(r *http.Request) (repr, ctype string) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		return reportReprJSON, reportCTJSON
	}
	return reportReprText, reportCTText
}

// handleReports serves GET /v1/reports: the catalogue of renderable
// specs under the current snapshot and budget.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	type reportInfo struct {
		Spec  string `json:"spec"`
		Title string `json:"title"`
		URL   string `json:"url"`
	}
	all := experiments.Specs()
	out := make([]reportInfo, 0, len(all))
	for _, sp := range all {
		out = append(out, reportInfo{Spec: sp.ID, Title: sp.Title, URL: "/v1/reports/" + sp.ID})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": s.snap.Load().hash,
		"budget":   s.reportBudget(),
		"seed":     s.opts.Seed,
		"reports":  out,
	})
}

// handleReport serves GET /v1/reports/{spec}.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("spec")
	if !validSpecID(id) {
		s.writeError(w, &httpError{code: http.StatusNotFound,
			err: fmt.Errorf("unknown spec %q (valid specs: %s)", id, strings.Join(experiments.SpecIDs(), ", "))})
		return
	}
	repr, ctype := negotiateReport(r)
	snap := s.snap.Load()
	key := reportKey{snapshot: snap.hash, spec: id, budget: s.reportBudget(), repr: repr}
	etag := ""
	if s.reports.enabled() {
		etag = etagFor(snap.hash, reportShape(key.spec, key.budget, repr))
	}
	w.Header().Set("Vary", "Accept")
	// The tag is a pure function of the key and renders are deterministic,
	// so a matching client already holds the exact bytes — even when this
	// server never rendered them — and revalidation answers before any
	// cache or pipeline work.
	err := writeTagged(w, r, etag, s.reportNotModified, ctype, func() ([]byte, error) {
		body, hit := s.reports.get(key)
		if s.logging && s.logger.Enabled(r.Context(), slog.LevelDebug) {
			s.logger.Debug("reportcache", "trace", obs.TraceID(r.Context()), "hit", hit, "spec", id, "repr", repr)
		}
		if hit {
			return body, nil
		}
		out, err := s.renderReport(r.Context(), snap, key)
		if repr == reportReprJSON {
			return out.json, err
		}
		return out.text, err
	})
	if err != nil {
		s.reportErrors.Inc()
		s.writeError(w, err)
	}
}

// renderReport produces both representations of one report through the
// per-(snapshot, spec, budget) render flight: the leader plans, executes
// missing units and renders; concurrent callers wait and share its
// bodies. Successful renders are stored in the report cache under both
// representations before the flight completes.
func (s *Server) renderReport(ctx context.Context, snap *snapshot, key reportKey) (rendered, error) {
	key.repr = ""
	return s.renders.do(ctx, key, func() (rendered, error) {
		t0 := time.Now()
		rep, err := experiments.RunReport(s.reportConfig(snap), key.spec)
		if err != nil {
			return rendered{}, err
		}
		d := time.Since(t0)
		s.reportRenders.Inc()
		s.reportUnitsComputed.Add(rep.Computed)
		s.reportUnitsHit.Add(rep.Hits)
		s.reportHist[key.spec].Observe(d)
		s.logger.Debug("report render", "trace", obs.TraceID(ctx), "spec", key.spec,
			"units", rep.Units, "computed", rep.Computed, "hits", rep.Hits, "dur", d)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(&ReportResponse{
			Spec:     rep.Spec,
			Title:    rep.Title,
			Snapshot: snap.hash,
			Dataset:  rep.Snapshot,
			Budget:   rep.Budget,
			Seed:     rep.Seed,
			Units:    rep.Units,
			Text:     rep.Text,
		}); err != nil {
			return rendered{}, err
		}
		out := rendered{text: []byte(rep.Text), json: buf.Bytes()}
		key.repr = reportReprText
		s.reports.put(key, out.text)
		key.repr = reportReprJSON
		s.reports.put(key, out.json)
		return out, nil
	})
}

// validSpecID reports whether id names a runnable spec.
func validSpecID(id string) bool {
	for _, s := range experiments.SpecIDs() {
		if s == id {
			return true
		}
	}
	return false
}
