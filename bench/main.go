// Command bench is the repository benchmark. It drives dtrankd and dtrank,
// built from this checkout, through four workloads, checks their outputs,
// and prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name with its unit, ending with one JSON result line. See
// README.md for the workloads, the metrics and how to compare two sets of
// runs; run.sh builds everything and runs it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// sizes are the workload dimensions; -smoke shrinks them.
type sizes struct {
	setups                             int           // fewest set-ups per run; setup_s is their median
	setupBudget                        time.Duration // rank set-ups repeat until they took this long
	hotFamilies, hotApps               int           // rank-hot shapes: families × apps × 3 methods
	freshFamilies                      int           // rank-fresh families (models: × 3 methods)
	coldChecks                         int           // rank-cold replies compared in-process
	replayHot, replayFresh, replayCold int           // requests the traced run replays in-process
	specs                              string        // spec-batch: `dtrank run -spec` argument
}

var (
	fullSizes = sizes{setups: 3, setupBudget: 2 * time.Second, hotFamilies: 5, hotApps: 6, freshFamilies: 17, coldChecks: 20,
		replayHot: 2000, replayFresh: 2000, replayCold: 200, specs: "all"}
	smokeSizes = sizes{setups: 1, hotFamilies: 2, hotApps: 2, freshFamilies: 3, coldChecks: 3,
		replayHot: 20, replayFresh: 20, replayCold: 5, specs: "table4"}
)

// env is what a workload run needs.
type env struct {
	seed  int64
	phase time.Duration // length of a measured phase
	trace bool
	smoke bool
	sz    sizes
	u     *universe
	start starter
	spec  specRunner
	work  string
	log   io.Writer
}

// spanFile is where a traced run writes its spans; each traced run of a
// workload replaces the previous run's file.
func (e *env) spanFile(workload string) string {
	return filepath.Join(e.work, "spans", workload+".jsonl")
}

// workload is one benchmark workload and why it exists.
type workload struct {
	name, why string
	run       func(ctx context.Context, e *env) (*result, error)
}

var workloads = []workload{
	{"rank-hot", "popular repeated questions: HTTP, middleware, rank cache and 304s only; fit and predict bypassed",
		func(ctx context.Context, e *env) (*result, error) {
			return runRank(ctx, e, rankWorkload{name: "rank-hot", stream: newHotStream(e.u, e.seed, e.sz.hotFamilies, e.sz.hotApps), replay: e.sz.replayHot,
				claims: []claim{rankCacheShare}})
		}},
	{"rank-fresh", "ranking from your own scores: unique bodies, resident models; decode, registry, predict and encode do the work",
		func(ctx context.Context, e *env) (*result, error) {
			return runRank(ctx, e, rankWorkload{name: "rank-fresh", stream: newFreshStream(e.u, e.seed, e.sz.freshFamilies), replay: e.sz.replayFresh, full: true,
				claims: []claim{noRankCacheHits, registryHits}})
		}},
	{"rank-cold", "first questions after a start: every request fits a model (MLP^T or GA-kNN); caches never hit",
		func(ctx context.Context, e *env) (*result, error) {
			return runRank(ctx, e, rankWorkload{name: "rank-cold", stream: newColdStream(e.u, e.seed, e.sz.coldChecks), replay: e.sz.replayCold, full: true,
				claims: []claim{noRankCacheHits, fitPerRequest}})
		}},
	{"spec-batch", "paper reproduction with dtrank run: cold runs fill a result store, warm runs read it and render",
		runSpecBatch},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "rank-hot, rank-fresh, rank-cold, spec-batch, or all")
	seed := fs.Int64("seed", 1, "seed of the request streams (the served dataset always uses seed 1)")
	seconds := fs.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	smoke := fs.Bool("smoke", false, "one-second phases and small working sets, to check the benchmark itself")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the dtrank and dtrankd binaries")
	work := fs.String("work", ".bench_build", "directory for result stores, spans and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	for _, b := range []string{"dtrank", "dtrankd"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			fmt.Fprintf(stderr, "bench: %v (build it with run.sh)\n", err)
			return 1
		}
	}
	e := &env{seed: *seed, phase: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		sz: fullSizes, start: processStarter(*bin), spec: processSpecRunner(*bin), work: *work, log: stderr}
	if *smoke {
		e.smoke, e.sz, e.phase = true, smokeSizes, time.Second
	}
	code, err := runAll(ctx, e, todo, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return code
}

// runAll runs the workloads in turn and reports each. It returns 1 when
// any output check failed.
func runAll(ctx context.Context, e *env, todo []workload, stdout io.Writer) (int, error) {
	if err := os.MkdirAll(filepath.Join(e.work, "spans"), 0o755); err != nil {
		return 0, err
	}
	u, err := newUniverse()
	if err != nil {
		return 0, err
	}
	e.u = u
	host := hostInfo()
	keys := make([]string, 0, len(host))
	for k := range host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(e.log, "# host %s: %s\n", k, host[k])
	}
	code := 0
	for _, w := range todo {
		fmt.Fprintf(e.log, "# %s: %s\n", w.name, w.why)
		res, err := w.run(ctx, e)
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		if res.attempted == 0 {
			return 0, errors.New(w.name + ": no operation was attempted")
		}
		if err := report(stdout, e, w.name, res); err != nil {
			return 0, err
		}
		if res.failed > 0 {
			code = 1
		}
	}
	return code, nil
}
