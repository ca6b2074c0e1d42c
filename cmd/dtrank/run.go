package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/method"
	"repro/internal/obs"
	"repro/internal/resultstore"
)

// runMethods prints the method registry — the same rows dtrankd serves on
// GET /v1/methods, generated from the one registry in internal/method.
func runMethods(args []string) error {
	fs := flag.NewFlagSet("methods", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the registry as JSON (the body of dtrankd's GET /v1/methods)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	infos := method.List()
	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(map[string]any{"methods": infos})
	}
	fmt.Printf("%-8s %-10s %-6s %-6s %s\n", "method", "aliases", "seed", "codec", "capabilities")
	for _, m := range infos {
		var caps []string
		if m.Compared {
			caps = append(caps, "compared")
		}
		if m.FreshScores {
			caps = append(caps, "fresh-scores")
		}
		if m.NeedsChars {
			caps = append(caps, "needs-chars")
		}
		if m.Stochastic {
			caps = append(caps, "stochastic")
		}
		seed := "base"
		if m.SeedOffset != 0 {
			seed = fmt.Sprintf("base+%d", m.SeedOffset)
		}
		fmt.Printf("%-8s %-10s %-6s %-6s %s\n",
			m.Name, strings.Join(m.Aliases, ","), seed, m.CodecKind, strings.Join(caps, ","))
	}
	return nil
}

// runRun executes experiment specs through the declarative pipeline,
// optionally against a persistent result store: with -cache, every table
// cell / figure point / ablation variant already in the store is served
// instead of recomputed, so reruns after a crash or a partial change are
// incremental. Rendered output is byte-identical to the spec's dedicated
// subcommand, cold or warm.
//
// With -worker URL the command joins a `dtrankd -coordinate` run as a
// work-stealing worker and renders nothing: it leases unit batches from
// the daemon's /v1/work/ control plane, executes them into the shared
// store, heartbeats while computing, and completes them — looping until
// the coordinator reports the plan done. Workers need no pre-assignment,
// batch sizes adapt to observed unit cost, and a worker that dies
// forfeits its lease so survivors pick up its units.
// -cache defaults to the worker URL (the daemon serves both /v1/work/
// and /v1/store/); a final run with -cache alone renders the merged
// report byte-identically.
func runRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	spec := fs.String("spec", "all", "comma-separated spec ids, or 'all' (valid: "+strings.Join(experiments.SpecIDs(), ", ")+")")
	cache := fs.String("cache", "", "result store: a directory, or the http(s):// URL of a dtrankd -cache daemon (persists unit results across runs and processes; default: in-memory only)")
	worker := fs.String("worker", "", "join a 'dtrankd -coordinate' run as a work-stealing worker: lease, execute and complete unit batches from this daemon URL, rendering nothing (-cache defaults to the same URL)")
	workerName := fs.String("worker-name", "", "worker name in lease ids and coordinator logs (default: host-pid)")
	maxBatch := fs.Int("max-batch", 0, "cap the units requested per lease on top of the coordinator's adaptive sizing (0 = no cap)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file when the run finishes (inspect with `go tool pprof`)")
	build := experimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}
	ids := experiments.SpecIDs()
	if *spec != "all" {
		ids = strings.Split(*spec, ",")
	}
	if *worker != "" && *cache == "" {
		// The coordinating daemon serves the store too; merging anywhere
		// else would hide completed units from the final render.
		*cache = *worker
	}
	st, err := resultstore.Open(*cache)
	if err != nil {
		return err
	}
	// Store operations run through latency histograms; the summary prints
	// as its own stderr line so existing output stays parse-stable.
	reg := obs.NewRegistry()
	backend := resultstore.BackendKind(st.Location())
	st = resultstore.Instrumented(st, reg, backend)
	cfg := build()
	cfg.Store = st
	where := "in-memory"
	if st.Location() != "" {
		where = st.Location()
	}

	if *worker != "" {
		return runWorker(*worker, *workerName, *maxBatch, cfg, ids, st, where, reg, backend)
	}

	if err := experiments.RunSpecs(cfg, os.Stdout, ids...); err != nil {
		return err
	}
	// The cache summary goes to stderr so stdout stays byte-comparable
	// between cold and warm runs.
	stats := st.Stats()
	fmt.Fprintf(os.Stderr, "dtrank run: result store %s: %d hits, %d misses, %d computed, %d corrupt\n",
		where, stats.Hits, stats.Misses, stats.Puts, stats.Corrupt)
	printStoreOps(reg, backend)
	return nil
}

// writeMemProfile records the cumulative allocation profile — the
// "allocs" profile counts every allocation since process start, which is
// what an allocs/op hunt needs; `go tool pprof -sample_index=inuse_space`
// recovers the live-heap view from the same file. Profile failures are
// reported but never fail the run: the experiment results already exist.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtrank run: memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialise up-to-date allocation statistics
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "dtrank run: memprofile: %v\n", err)
	}
}

// printStoreOps renders the instrumented store's per-op latency as its
// own stderr line. Smoke scripts sed-parse the summary lines above, so
// new detail must never ride on those lines.
func printStoreOps(reg *obs.Registry, backend string) {
	var parts []string
	for _, op := range []string{"get", "put"} {
		h := reg.Histogram("dtrank_store_op_seconds", obs.L("backend", backend), obs.L("op", op))
		if h.Count() == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s p50 %s p99 %s (%d ops)", op,
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)), h.Count()))
	}
	if len(parts) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "dtrank run: store latency [%s]: %s\n", backend, strings.Join(parts, ", "))
}

// printCoordOps does the same for the worker's control-plane calls.
func printCoordOps(reg *obs.Registry) {
	var parts []string
	for _, op := range []string{"lease", "heartbeat", "complete", "status"} {
		h := reg.Histogram("dtrank_coord_client_seconds", obs.L("op", op))
		if h.Count() == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s p50 %s p99 %s (%d ops)", op,
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)), h.Count()))
	}
	if len(parts) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "dtrank run: coord latency: %s\n", strings.Join(parts, ", "))
}

// runWorker is the -worker mode: plan the same unit set the coordinator
// planned, then loop lease → execute → complete against its /v1/work/
// control plane until the plan is done. The plan fingerprint travels in
// every grant, so a worker started with mismatched flags aborts before
// executing a single wrong unit.
func runWorker(workerURL, name string, maxBatch int, cfg experiments.Config, ids []string, st resultstore.Store, where string, reg *obs.Registry, backend string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	client, err := coord.NewClient(workerURL)
	if err != nil {
		return err
	}
	client.Instrument(reg)
	plan, err := experiments.PlanSpecs(cfg, ids...)
	if err != nil {
		return err
	}
	exec := plan.Executor()
	w := &coord.Worker{
		Client: client,
		Name:   name,
		Plan:   plan.Fingerprint(),
		Exec: func(ctx context.Context, keys []resultstore.Key) error {
			units, err := plan.UnitsByKey(keys)
			if err != nil {
				return err
			}
			return exec.Execute(units)
		},
		MaxBatch: maxBatch,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dtrank run: "+format+"\n", args...)
		},
	}
	ws, err := w.Run(ctx)
	stats := st.Stats()
	fmt.Fprintf(os.Stderr, "dtrank run: worker %s: %d units in %d leases (%d duplicates, %d leases lost) into %s: %d hits, %d computed, %d corrupt\n",
		name, ws.Units, ws.Leases, ws.Duplicates, ws.LeaseLost, where, stats.Hits, stats.Puts, stats.Corrupt)
	printStoreOps(reg, backend)
	printCoordOps(reg)
	return err
}
