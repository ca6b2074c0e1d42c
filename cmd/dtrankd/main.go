// Command dtrankd is the ranking daemon: it loads (or synthesises) a
// performance database once, then serves ranking queries over HTTP from a
// registry of trained models, so repeated "which machine should I buy for
// this application?" queries cost a model lookup instead of a refit.
//
// Usage:
//
//	dtrankd [-addr :8117] [-seed N] [-data file.csv] [-workers N]
//	        [-max-models N] [-rank-cache N] [-report-cache N]
//	        [-registry dir] [-save] [-cache dir]
//	        [-coordinate all|id,..] [-lease-ttl 30s] [-fast] [-draws D] [-maxk K]
//	        [-debug-addr addr] [-log-format text|json] [-log-level info]
//
// Rankings are byte-identical to `dtrank rank -json` for the same seed,
// family, application and method — the daemon is a cache in front of the
// same deterministic fits, not a different code path. The serving fast
// path layers on top without changing a byte: -rank-cache bounds an LRU
// of rendered response bodies (hits skip fit, predict and encode, and
// /v1/rank answers If-None-Match revalidation with 304), and concurrent
// cache misses against one model — whatever their top clamps — share a
// single fit and prediction.
//
// Endpoints: POST /v1/rank, GET /v1/methods, GET /v1/machines,
// GET /v1/reports (catalogue), GET /v1/reports/{spec} (rendered report),
// POST /v1/snapshot (hot-swap the database from a CSV body), GET /v1/status
// (JSON health snapshot and counters), GET /metrics (Prometheus text
// exposition), GET /healthz.
//
// GET /v1/reports/{spec} serves the paper's tables, figures and ablations
// rendered against the served snapshot, byte-identical to `dtrank run
// -spec <id>` with the same -seed, -fast, -draws and -maxk (those flags
// set the report budget whether or not -coordinate is on). A render
// computes only the units missing from the -cache store — a daemon whose
// store was warmed by CLI runs, shards or workers recomputes nothing —
// and the rendered body is cached (-report-cache bounds the LRU) under a
// strong ETag, so pollers revalidating with If-None-Match get 304 without
// any work. Accept: application/json selects a structured envelope
// carrying the same text. In -data mode the CSV has no workload
// characteristics, so specs that exercise the GA-kNN baseline fail at
// render time; the MLP^T-only specs still serve.
//
// Observability: every request gets a trace ID (or adopts a valid inbound
// X-Dtrank-Trace header) that appears in the response header and in every
// structured log line the request produces; -log-format selects text or
// json lines on stderr and -log-level sets the floor (debug shows
// per-request cache, fit and render detail). -debug-addr starts a second,
// operator-only listener exposing /debug/pprof/ and a /metrics mirror —
// off by default so profiling is never reachable through the service port.
//
// With -cache the daemon additionally serves the experiment result store
// under /v1/store/: sharded `dtrank run -shard i/n -cache
// http://host:8117` processes merge their computed units through the
// daemon, and a final `dtrank run -cache http://host:8117` renders the
// merged report. The directory is interchangeable with a local
// `dtrank run -cache dir` store.
//
// With -coordinate the daemon additionally runs the lease-based
// work-stealing control plane under /v1/work/: it plans the named specs
// once and hands unit batches to `dtrank run -worker http://host:8117`
// processes on demand, so workers need no pre-assigned shard and a
// killed worker's units return to the queue after -lease-ttl. The
// planning flags (-seed, -fast, -draws, -maxk) must match the workers'.
//
// With -registry the daemon warm-starts from models saved in dir; with
// -save it writes the registry back on shutdown, so restarts skip the
// fitting cost entirely. Shutdown is graceful: SIGINT/SIGTERM stops the
// listener, drains in-flight requests and cancels pending fits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/coord"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, and idleTimeout how long a keep-alive connection may wait for
// its next request, so neither a client that never finishes its headers
// nor an idle one holds a connection forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer is the one constructor of both listeners' servers, the
// service and -debug-addr. WriteTimeout stays unset on purpose: it would
// cut off cold report renders, which take seconds, and pprof profiles,
// which stream for as long as the client asks.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintf(os.Stderr, "dtrankd: %v\n", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled or the listener
// fails. When ready is non-nil, the bound address is sent once the
// listener accepts connections (used by tests and by -addr :0).
func run(ctx context.Context, args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("dtrankd", flag.ContinueOnError)
	addr := fs.String("addr", ":8117", "listen address")
	seed := fs.Int64("seed", 1, "dataset and predictor seed (must match the dtrank run being mirrored)")
	dataFile := fs.String("data", "", "load the performance database from CSV (as written by 'dtrank gen') instead of synthesising it; GA-kNN is unavailable in this mode")
	workers := fs.Int("workers", 0, "worker pool bound for fitting (0 = all cores)")
	maxModels := fs.Int("max-models", serve.DefaultMaxModels, "registry LRU bound")
	rankCache := fs.Int("rank-cache", serve.DefaultRankCacheSize, "rendered-response cache bound in entries (-1 disables the cache and ETag/304 revalidation)")
	reportCache := fs.Int("report-cache", serve.DefaultReportCacheSize, "rendered-report cache bound in entries for /v1/reports/ (-1 disables the cache and ETag/304 revalidation)")
	registryDir := fs.String("registry", "", "warm-start the model registry from this directory")
	save := fs.Bool("save", false, "save the registry back to -registry on shutdown")
	cacheDir := fs.String("cache", "", "serve the experiment result store under /v1/store/ from this directory (the merge point of 'dtrank run -shard -cache http://this-daemon')")
	coordinate := fs.String("coordinate", "", "coordinate a work-stealing run of these comma-separated spec ids (or 'all') under /v1/work/; requires -cache, workers join with 'dtrank run -worker http://this-daemon'")
	leaseTTL := fs.Duration("lease-ttl", coord.DefaultLeaseTTL, "work lease time-to-live; a worker silent for this long forfeits its units back to the queue")
	fast := fs.Bool("fast", false, "reduced model budgets for /v1/reports/ renders and coordinated specs (must match the workers' -fast)")
	draws := fs.Int("draws", 0, "random draws for Table 4 / Figure 8 units in reports and coordinated specs (0 = default; must match the workers' -draws)")
	maxk := fs.Int("maxk", 0, "largest predictive-set size for Figure 8 units in reports and coordinated specs (0 = default; must match the workers' -maxk)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof/ and a /metrics mirror on this second listener (empty = off; keep it off the service network)")
	logFormat := fs.String("log-format", "text", "structured log encoding on stderr: text or json")
	logLevel := fs.String("log-level", "info", "log level floor: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *save && *registryDir == "" {
		return errors.New("-save requires -registry")
	}
	if *coordinate != "" && *cacheDir == "" {
		return errors.New("-coordinate requires -cache: workers merge their units through the daemon's store")
	}
	if *workers > 0 {
		repro.SetWorkers(*workers)
	}

	var matrix *dataset.Matrix
	var chars map[string][]float64
	if *dataFile != "" {
		f, err := os.Open(*dataFile)
		if err != nil {
			return err
		}
		matrix, err = dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		data, err := repro.Generate(repro.DefaultDatasetOptions(*seed))
		if err != nil {
			return err
		}
		matrix, chars = data.Matrix, data.Characteristics
	}

	var co *coord.Coordinator
	if *coordinate != "" {
		ids := experiments.SpecIDs()
		if *coordinate != "all" {
			ids = strings.Split(*coordinate, ",")
		}
		cfg := experiments.DefaultConfig(*seed)
		cfg.Fast = *fast
		if *draws > 0 {
			cfg.RandomDraws = *draws
		}
		if *maxk > 0 {
			cfg.MaxK = *maxk
		}
		plan, err := experiments.PlanSpecs(cfg, ids...)
		if err != nil {
			return fmt.Errorf("planning -coordinate specs: %w", err)
		}
		co, err = coord.New(plan.Fingerprint(), plan.Keys(), coord.Options{LeaseTTL: *leaseTTL, Logger: logger})
		if err != nil {
			return err
		}
	}

	srv, err := serve.NewServer(matrix, chars, serve.Options{
		Seed:        *seed,
		MaxModels:   *maxModels,
		StoreDir:    *cacheDir,
		Coordinator: co,
		RankCache:   *rankCache,
		ReportCache: *reportCache,
		ReportFast:  *fast,
		ReportDraws: *draws,
		ReportMaxK:  *maxk,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	logger.Info("snapshot loaded", "hash", srv.SnapshotHash()[:12],
		"benchmarks", matrix.NumBenchmarks(), "machines", matrix.NumMachines())
	if *cacheDir != "" {
		logger.Info("serving result store", "dir", *cacheDir, "prefix", "/v1/store/")
	}
	if co != nil {
		st := co.Stats()
		logger.Info("coordinating work", "units", st.Total, "specs", *coordinate,
			"plan", st.Plan[:12], "lease_ttl", *leaseTTL, "prefix", "/v1/work/")
	}

	if *registryDir != "" {
		if n, err := srv.Registry().Load(ctx, *registryDir); err != nil {
			if os.IsNotExist(err) {
				logger.Info("no saved registry, starting cold", "dir", *registryDir)
			} else {
				logger.Warn("warm start incomplete", "loaded", n, "err", err)
			}
		} else {
			logger.Info("warm start", "loaded", n, "dir", *registryDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	httpSrv := newHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String())

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		// Mount pprof explicitly on a private mux: a blank import would
		// register it on http.DefaultServeMux, which the service listener
		// never uses, and implicit registration hides the exposure.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", srv.Obs().Handler())
		debugSrv = newHTTPServer(dmux)
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug listener failed", "err", err)
			}
		}()
		logger.Info("debug listener", "addr", dln.Addr().String(), "endpoints", "/debug/pprof/ /metrics")
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	if debugSrv != nil {
		debugSrv.Shutdown(shutdownCtx)
	}
	srv.Close() // unblock any fits still pending in the registry
	if *save {
		if n, err := srv.Registry().Save(*registryDir); err != nil {
			logger.Error("saving registry failed", "err", err)
		} else {
			logger.Info("saved registry", "models", n, "dir", *registryDir)
		}
	}
	return shutdownErr
}
