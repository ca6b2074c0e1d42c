package experiments

import (
	"io"
)

// RunAll executes every experiment of the paper's evaluation and streams
// the rendered tables and figures to w, in the paper's order. It is
// RunSpecs over the paper's spec set: one result store and one worker
// pool are shared across all specs, so the family cross-validation is
// computed (or read from the store) once and rendered three ways, and a
// directory-backed cfg.Store makes the whole evaluation resumable — a
// rerun recomputes only units missing from the store and reads each
// stored unit once.
func RunAll(cfg Config, w io.Writer) error {
	return RunSpecs(cfg, w, paperSpecIDs...)
}
