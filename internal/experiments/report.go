package experiments

import (
	"bytes"
)

// This file is the serving side of the spec pipeline: RunReport renders
// one spec the way `dtrank run -spec <id>` does — plan the spec's units,
// compute only the ones missing from the store, render from the (now
// fully warm) store — and returns the rendered text together with the
// store traffic the render caused. dtrankd's GET /v1/reports/{spec}
// builds on it: against a warm store a report costs reads only, against a
// cold one exactly the missing cells are computed, and in both cases the
// text is byte-identical to the CLI render.

// Report is one rendered spec plus the bookkeeping of producing it.
type Report struct {
	// Spec and Title identify the rendered spec.
	Spec  string
	Title string
	// Snapshot is the fingerprint every unit of this render is keyed
	// under (the Key.Snapshot component): the synthesis recipe's, or the
	// injected data's when it is not the recipe's output.
	Snapshot string
	// Budget is the training-budget regime of the unit keys: "" for the
	// full budget, "fast" under Config.Fast.
	Budget string
	// Seed is the run's seed (the Key.Seed component).
	Seed int64
	// Text is the rendered report, byte-identical to what
	// `dtrank run -spec <Spec>` writes to stdout with the same
	// configuration and store state.
	Text string
	// Units is the number of planned units the spec reads.
	Units int
	// Hits and Computed are the store-traffic deltas of this render:
	// units served from the store versus computed (and stored) by it.
	// A render against a fully warm store has Computed == 0.
	Hits, Computed int64
}

// RunReport renders the named spec incrementally: PlanSpecs enumerates
// its units, the Executor computes only the ones the store is missing
// (synthesising the dataset once if any is), and the spec then renders
// entirely from stored cells, so a warm report synthesises nothing. The returned
// Text is byte-identical to RunSpecs (and `dtrank run -spec id`) with
// the same configuration — cold, warm, or anywhere in between.
func RunReport(cfg Config, id string) (*Report, error) {
	s, err := findSpec(id)
	if err != nil {
		return nil, err
	}
	plan, err := PlanSpecs(cfg, id)
	if err != nil {
		return nil, err
	}
	st := plan.cfg.store()
	before := st.Stats()
	if err := plan.Executor().Execute(plan.Units); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := s.run(plan.cfg, &buf); err != nil {
		return nil, err
	}
	after := st.Stats()
	ds, err := plan.cfg.dataset()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Spec:     s.ID,
		Title:    s.Title,
		Snapshot: ds.fp,
		Seed:     cfg.Seed,
		Text:     buf.String(),
		Units:    len(plan.Units),
		Hits:     after.Hits - before.Hits,
		Computed: after.Puts - before.Puts,
	}
	if cfg.Fast {
		rep.Budget = "fast"
	}
	return rep, nil
}
