package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// daemon is one running dtrankd as the benchmark sees it: its base URL and
// the process whose CPU time and peak memory are charged to it.
type daemon struct {
	url  string
	pid  int
	stop func() error
}

// starter boots a fresh daemon and returns once GET /healthz answers 200.
type starter func(ctx context.Context) (*daemon, error)

// processStarter runs bin/dtrankd with its default flags plus -addr on a
// free loopback port. Its stdout and stderr go to the null device, so the
// info-level access log is still formatted and written, as in production.
func processStarter(bin string) starter {
	return func(ctx context.Context) (*daemon, error) {
		var lastErr error
		for attempt := 0; attempt < 3; attempt++ { // a free port can be taken before dtrankd binds it
			d, err := startDaemon(ctx, filepath.Join(bin, "dtrankd"))
			if err == nil {
				return d, nil
			}
			lastErr = err
		}
		return nil, lastErr
	}
}

func startDaemon(ctx context.Context, path string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(path, "-addr", addr)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d := &daemon{url: "http://" + addr, pid: cmd.Process.Pid}
	d.stop = func() error {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			return err
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-exited
			return errors.New("dtrankd ignored SIGTERM for 15s")
		}
	}
	if err := waitHealthy(ctx, d.url, exited); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// a minute passes. It polls every 200µs: rank-cold's whole set-up takes a
// few milliseconds, so a coarser poll would be a large part of it.
func waitHealthy(ctx context.Context, url string, exited <-chan error) error {
	c := newClient(url)
	defer c.close()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			return fmt.Errorf("dtrankd exited before answering /healthz: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if _, err := c.get(ctx, "/healthz"); err == nil {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("dtrankd did not answer /healthz within a minute")
}

// procCPU returns the user plus system CPU time pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it may not.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] { // utime, stime
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakMiB returns pid's peak resident set size (VmHWM) in MiB.
func procPeakMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The spec-batch budget: the flags of the pinned spec-batch goldens.
const (
	specDraws = 2
	specMaxK  = 3
)

// specConfig is the experiments configuration `dtrank run -fast -draws 2
// -maxk 3` builds.
func specConfig() experiments.Config {
	cfg := experiments.DefaultConfig(datasetSeed)
	cfg.Fast = true
	cfg.RandomDraws = specDraws
	cfg.MaxK = specMaxK
	return cfg
}

// specRun is one finished `dtrank run`.
type specRun struct {
	stdout   []byte
	wall     time.Duration
	peakMiB  float64
	computed int64 // units computed and Put into the store
}

// specRunner runs the specs (comma-separated ids or "all") against the
// result store directory dir.
type specRunner func(ctx context.Context, specs, dir string) (specRun, error)

var computedRE = regexp.MustCompile(`(\d+) computed`)

// processSpecRunner runs bin/dtrank run -spec ... -fast -draws 2 -maxk 3
// -cache dir, timing the whole process.
func processSpecRunner(bin string) specRunner {
	return func(ctx context.Context, specs, dir string) (specRun, error) {
		cmd := exec.CommandContext(ctx, filepath.Join(bin, "dtrank"), "run", "-spec", specs, "-fast",
			"-draws", strconv.Itoa(specDraws), "-maxk", strconv.Itoa(specMaxK), "-cache", dir)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Run()
		run := specRun{stdout: stdout.Bytes(), wall: time.Since(t0)}
		if err != nil {
			return run, fmt.Errorf("dtrank run: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		run.peakMiB = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
		m := computedRE.FindSubmatch(stderr.Bytes())
		if m == nil {
			return run, fmt.Errorf("dtrank run printed no store summary: %s", stderr.Bytes())
		}
		run.computed, _ = strconv.ParseInt(string(m[1]), 10, 64)
		return run, nil
	}
}

func specIDs(specs string) []string {
	if specs == "all" {
		return experiments.SpecIDs()
	}
	return strings.Split(specs, ",")
}
