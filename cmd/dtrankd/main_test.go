package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/resultstore"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a shutdown function that blocks until run returns.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr.String(), func() error {
			cancel()
			select {
			case err := <-errCh:
				return err
			case <-time.After(15 * time.Second):
				return fmt.Errorf("daemon did not shut down")
			}
		}
	case err := <-errCh:
		cancel()
		t.Fatalf("daemon failed to start: %v", err)
		return "", nil
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon start timed out")
		return "", nil
	}
}

func TestDaemonServesRankAndShutsDownGracefully(t *testing.T) {
	base, shutdown := startDaemon(t, "-seed", "2")
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	body := bytes.NewReader([]byte(`{"family":"AMD Phenom","app":"gcc","method":"NN^T","top":3}`))
	resp, err = http.Post(base+"/v1/rank", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Method  string `json:"method"`
		Ranking []struct {
			Machine string `json:"machine"`
		} `json:"ranking"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Method != "NN^T" || len(out.Ranking) != 3 {
		t.Fatalf("rank: HTTP %d, %+v", resp.StatusCode, out)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

func TestDaemonSavesAndWarmStartsRegistry(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "registry")
	base, shutdown := startDaemon(t, "-seed", "2", "-registry", dir, "-save")
	body := []byte(`{"family":"AMD Phenom","app":"gcc","method":"NN^T"}`)
	resp, err := http.Post(base+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Fatalf("registry not saved: %v", err)
	}

	// Second daemon warm-starts; its first identical query must be a
	// registry hit, not a refit.
	base, shutdown = startDaemon(t, "-seed", "2", "-registry", dir)
	defer shutdown()
	resp, err = http.Post(base+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	status, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Registry struct {
			Fits   int `json:"fits"`
			Models int `json:"models"`
		} `json:"registry"`
	}
	if err := json.NewDecoder(status.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	status.Body.Close()
	if stats.Registry.Fits != 0 || stats.Registry.Models < 1 {
		t.Fatalf("warm start refit: %+v", stats.Registry)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-save"}, nil); err == nil ||
		!strings.Contains(err.Error(), "-registry") {
		t.Fatalf("want -save/-registry error, got %v", err)
	}
	if err := run(context.Background(), []string{"-data", "/no/such/file.csv"}, nil); err == nil {
		t.Fatal("want missing-data-file error")
	}
	if err := run(context.Background(), []string{"-coordinate", "table3"}, nil); err == nil ||
		!strings.Contains(err.Error(), "-cache") {
		t.Fatalf("want -coordinate/-cache error, got %v", err)
	}
	if err := run(context.Background(), []string{"-coordinate", "nope", "-cache", t.TempDir()}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown spec") {
		t.Fatalf("want unknown-spec error, got %v", err)
	}
}

// TestDaemonCoordinatesWorkers drives the full control plane end to end:
// the daemon plans a spec set with -coordinate, a worker joins over HTTP,
// leases, executes into the daemon's /v1/store/ and completes, and the
// status endpoint reports the plan drained.
func TestDaemonCoordinatesWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full spec execution in -short mode")
	}
	dir := t.TempDir()
	base, shutdown := startDaemon(t, "-seed", "1", "-fast", "-cache", dir, "-coordinate", "table3")
	defer shutdown()

	// The worker plans with the same flags the daemon did and merges its
	// units through the daemon's store.
	st, err := resultstore.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.DefaultConfig(1)
	cfg.Fast = true
	cfg.Store = st
	plan, err := experiments.PlanSpecs(cfg, "table3")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := coord.NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	exec := plan.Executor()
	w := &coord.Worker{
		Client: cl,
		Name:   "test-worker",
		Plan:   plan.Fingerprint(),
		Exec: func(ctx context.Context, keys []resultstore.Key) error {
			units, err := plan.UnitsByKey(keys)
			if err != nil {
				return err
			}
			return exec.Execute(units)
		},
	}
	stats, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Units != len(plan.Units) {
		t.Fatalf("worker completed %d of %d units", stats.Units, len(plan.Units))
	}

	status, err := cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if status.Done != len(plan.Units) || status.Pending != 0 || status.Plan != plan.Fingerprint() {
		t.Fatalf("status %+v", status)
	}

	// The coordinator's counters surface in /v1/status under "work".
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Work struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		} `json:"work"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vars.Work.Done != len(plan.Units) || vars.Work.Total != len(plan.Units) {
		t.Fatalf("/v1/status work counters %+v", vars.Work)
	}
}

// TestDaemonDropsSlowHeaderClients sends half a request line and then
// nothing: the daemon must close the connection once readHeaderTimeout
// passes instead of holding it open forever.
func TestDaemonDropsSlowHeaderClients(t *testing.T) {
	t.Parallel()
	base, shutdown := startDaemon(t)
	defer shutdown()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %s after a half-sent request line", time.Since(start).Round(time.Second))
	}
}

// TestListenerTimeouts pins both listeners' timeouts: newHTTPServer sets
// the header and idle timeouts and leaves the read and write timeouts
// unset, and it is the only place in main.go that builds an
// http.Server, called once for the service and once for -debug-addr.
func TestListenerTimeouts(t *testing.T) {
	s := newHTTPServer(nil)
	if s.ReadHeaderTimeout != readHeaderTimeout || s.IdleTimeout != idleTimeout ||
		s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatalf("server timeouts: header %v, idle %v, read %v, write %v",
			s.ReadHeaderTimeout, s.IdleTimeout, s.ReadTimeout, s.WriteTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts must be set: header %v, idle %v", readHeaderTimeout, idleTimeout)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	literals, calls := 0, 0
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Server" {
				literals++
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "newHTTPServer" {
				calls++
			}
		}
		return true
	})
	if literals != 1 || calls != 2 {
		t.Fatalf("main.go builds %d http.Server literals and calls newHTTPServer %d times, want 1 and 2", literals, calls)
	}
}
