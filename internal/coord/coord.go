// Package coord implements the lease-based work-stealing coordinator of
// distributed experiment runs. A Coordinator holds the deterministic unit
// list of an experiment plan (internal/experiments.PlanSpecs) as a queue;
// workers pull batches of units on short-lived leases, heartbeat while
// computing, and report completion. A lease that stops heartbeating
// expires and its unfinished units return to the queue for the next
// worker — so stragglers never stall the run and a dead worker strands
// nothing.
//
// Completed results land in the shared result store (a directory or a
// dtrankd /v1/store/ URL), so the merged render stays byte-identical to
// a single-process run. Because the
// store is content-addressed, completing a unit twice — a recovered lease
// whose original worker was merely slow, not dead — is a harmless no-op:
// both workers computed the identical bytes under the identical key.
//
// The coordinator is transport-independent; http.go provides the HTTP
// facade dtrankd mounts under /v1/work/ (POST lease, heartbeat, complete,
// GET status), the matching Client, and the Worker loop `dtrank run
// -worker` drives.
package coord

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resultstore"
)

// Unit lifecycle states.
const (
	statePending = iota // in the queue, waiting for a lease
	stateLeased         // held by an active lease
	stateDone           // completed; terminal
)

// DefaultLeaseTTL is the lease lifetime when Options.LeaseTTL is zero:
// long enough to cover the slowest observed unit cost (~34 ms per MLP^T
// cell) by three orders of magnitude, short enough that a dead worker's
// slice is back in the queue within a minute.
const DefaultLeaseTTL = 30 * time.Second

// DefaultMaxBatch bounds one lease's unit count when Options.MaxBatch is
// zero.
const DefaultMaxBatch = 64

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL is how long a lease lives without a heartbeat; 0 means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxBatch caps the units granted per lease regardless of the
	// adaptive sizing; 0 means DefaultMaxBatch.
	MaxBatch int
	// Now is the expiry clock, for tests; nil means time.Now.
	Now func() time.Time
	// Logger receives one structured line per grant, completion and
	// expiry, each carrying the lease's trace ID so coordinator and
	// worker logs are joinable; nil logs nothing.
	Logger *slog.Logger
}

func (o Options) ttl() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return DefaultMaxBatch
}

// lease is one outstanding grant.
type lease struct {
	worker  string
	trace   string // the grant's trace ID, echoed by worker log lines
	units   []int  // unit indices granted (some may since be done or re-owned)
	granted time.Time
	expires time.Time
}

// Coordinator is the lease table and unit queue of one planned run. All
// methods are safe for concurrent use.
type Coordinator struct {
	opts Options
	plan string
	log  *slog.Logger

	mu     sync.Mutex
	keys   []resultstore.Key
	state  []uint8
	owner  []string // lease id per leased unit ("" otherwise)
	index  map[resultstore.Key]int
	queue  []int // pending unit indices, FIFO; done entries are skipped on pop
	leases map[string]*lease
	seq    int64

	doneCount   int
	leasedCount int

	// ewmaUnitSeconds is the observed cost per unit, updated from the
	// lease-to-complete wall time of finished batches; it drives the
	// adaptive batch size.
	ewmaUnitSeconds float64

	leasesGranted  int64
	leasesExpired  int64
	unitsRecovered int64
	unitsCompleted int64
	dupCompletes   int64
	lateCompletes  int64
	heartbeats     int64
}

// New builds a coordinator over the planned unit keys, in plan order.
// planFP is the plan fingerprint (experiments.Plan.Fingerprint); leases
// echo it so a worker planned with different flags fails loudly instead
// of executing a mismatched unit set. Duplicate keys are rejected — the
// planner already dedups, so one here is a caller bug.
func New(planFP string, keys []resultstore.Key, opts Options) (*Coordinator, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("coord: empty unit list")
	}
	c := &Coordinator{
		opts:   opts,
		plan:   planFP,
		log:    obs.OrNop(opts.Logger),
		keys:   append([]resultstore.Key(nil), keys...),
		state:  make([]uint8, len(keys)),
		owner:  make([]string, len(keys)),
		index:  make(map[resultstore.Key]int, len(keys)),
		queue:  make([]int, 0, len(keys)),
		leases: map[string]*lease{},
	}
	for i, k := range c.keys {
		if _, dup := c.index[k]; dup {
			return nil, fmt.Errorf("coord: duplicate unit key %+v", k)
		}
		c.index[k] = i
		c.queue = append(c.queue, i)
	}
	return c, nil
}

// Plan returns the coordinator's plan fingerprint.
func (c *Coordinator) Plan() string { return c.plan }

func (c *Coordinator) now() time.Time {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return time.Now()
}

// sweep requeues the units of every expired lease. Callers hold c.mu.
func (c *Coordinator) sweep(now time.Time) {
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		requeued := c.release(id, l)
		c.unitsRecovered += int64(requeued)
		c.leasesExpired++
		c.log.Warn("lease expired", "trace", l.trace, "lease", id, "worker", l.worker, "requeued", requeued)
	}
}

// release ends lease id, returning the units it still holds to the queue,
// and reports how many it returned. Callers hold c.mu.
func (c *Coordinator) release(id string, l *lease) int {
	requeued := 0
	for _, u := range l.units {
		if c.state[u] == stateLeased && c.owner[u] == id {
			c.state[u] = statePending
			c.owner[u] = ""
			c.leasedCount--
			c.queue = append(c.queue, u)
			requeued++
		}
	}
	delete(c.leases, id)
	return requeued
}

// batchSize derives the adaptive lease size: enough units that a batch
// takes roughly a quarter of the lease TTL at the observed per-unit cost,
// clamped to [1, MaxBatch] and the worker's own max. Before any batch has
// completed the cost is unknown and the size is 1 — the first leases
// double as cost probes, which matters precisely because unit costs span
// ~50× across methods.
func (c *Coordinator) batchSize(workerMax int) int {
	n := 1
	if c.ewmaUnitSeconds > 0 {
		target := c.opts.ttl().Seconds() / 4
		n = int(target / c.ewmaUnitSeconds)
	}
	if max := c.opts.maxBatch(); n > max {
		n = max
	}
	if workerMax > 0 && n > workerMax {
		n = workerMax
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Grant is one lease offer. A grant with Done set means every unit of the
// plan is complete and the worker can exit; a grant with no units and
// Done unset means everything pending is currently leased elsewhere — the
// worker should wait about RetryAfter and lease again (it may inherit
// those units if their lease expires).
type Grant struct {
	// ID identifies the lease for heartbeat and complete; empty when no
	// units were granted.
	ID string
	// Units are the granted unit keys, in plan order.
	Units []resultstore.Key
	// TTL is the lease lifetime; heartbeats restart it.
	TTL time.Duration
	// Plan echoes the coordinator's plan fingerprint.
	Plan string
	// Done reports that every unit of the plan is complete.
	Done bool
	// Remaining counts units not yet completed, including the ones just
	// granted.
	Remaining int
	// RetryAfter suggests a wait before the next lease call when Units
	// is empty and Done is unset.
	RetryAfter time.Duration
	// Trace is the 16-hex trace ID minted for this lease; the worker
	// tags its log lines with it and echoes it on complete, so one unit
	// batch's life is grep-able across coordinator and worker logs. Empty
	// when no units were granted.
	Trace string
}

// Lease grants up to max units (0 means no worker-side cap beyond the
// adaptive size) to the named worker.
func (c *Coordinator) Lease(worker string, max int) Grant {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweep(now)

	g := Grant{TTL: c.opts.ttl(), Plan: c.plan, Remaining: len(c.keys) - c.doneCount}
	if g.Remaining == 0 {
		g.Done = true
		return g
	}
	want := c.batchSize(max)
	var units []int
	for len(units) < want && len(c.queue) > 0 {
		u := c.queue[0]
		c.queue = c.queue[1:]
		if c.state[u] != statePending {
			continue // completed or re-leased while queued; skip
		}
		units = append(units, u)
	}
	if len(units) == 0 {
		// Everything pending is held by live leases; poll until one
		// completes or expires.
		g.RetryAfter = c.opts.ttl() / 4
		return g
	}
	c.seq++
	id := fmt.Sprintf("%s-%d", worker, c.seq)
	l := &lease{worker: worker, trace: obs.NewTraceID(), units: units, granted: now, expires: now.Add(c.opts.ttl())}
	c.leases[id] = l
	for _, u := range units {
		c.state[u] = stateLeased
		c.owner[u] = id
		c.leasedCount++
	}
	c.leasesGranted++
	g.ID = id
	g.Trace = l.trace
	g.Units = make([]resultstore.Key, len(units))
	for i, u := range units {
		g.Units[i] = c.keys[u]
	}
	c.log.Info("lease granted", "trace", l.trace, "lease", id, "worker", worker, "units", len(units), "remaining", g.Remaining)
	return g
}

// Heartbeat extends the lease's expiry by a full TTL. An unknown or
// already-expired lease returns an error; the worker should keep
// computing and Complete anyway — completion of requeued units is
// idempotent.
func (c *Coordinator) Heartbeat(id string) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweep(now)
	l, ok := c.leases[id]
	if !ok {
		return 0, fmt.Errorf("coord: unknown or expired lease %q", id)
	}
	l.expires = now.Add(c.opts.ttl())
	c.heartbeats++
	return c.opts.ttl(), nil
}

// CompleteResult reports what one Complete call changed.
type CompleteResult struct {
	// Completed counts units this call newly marked done.
	Completed int `json:"completed"`
	// Duplicates counts units that were already done — the idempotent
	// path of a recovered lease completed twice.
	Duplicates int `json:"duplicates"`
	// Done reports that every unit of the plan is now complete.
	Done bool `json:"done"`
}

// Complete marks the given units done and ends the lease; units of the
// lease the call does not name return to the queue. The units must belong
// to the plan;
// they need not still be attributed to the lease — a lease that expired
// mid-flight (and whose units may have been re-leased or even re-completed
// by another worker) still completes successfully, because the results
// are already in the content-addressed store and a duplicate is a no-op.
// trace is the grant's trace ID echoed by the worker (may be empty): for
// a live lease the coordinator knows its own, but a late complete arrives
// after the lease record is gone, and the echo is what keeps its log line
// joinable.
func (c *Coordinator) Complete(id string, keys []resultstore.Key, trace string) (CompleteResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweep(now)

	// Validate before mutating: an unknown key means the worker ran a
	// different plan, and nothing of this call should be trusted.
	units := make([]int, len(keys))
	for i, k := range keys {
		u, ok := c.index[k]
		if !ok {
			return CompleteResult{}, fmt.Errorf("coord: unit %+v is not in the plan", k)
		}
		units[i] = u
	}

	var res CompleteResult
	for _, u := range units {
		if c.state[u] == stateDone {
			res.Duplicates++
			c.dupCompletes++
			continue
		}
		if c.state[u] == stateLeased {
			c.leasedCount--
		}
		c.state[u] = stateDone
		c.owner[u] = ""
		c.doneCount++
		c.unitsCompleted++
		res.Completed++
	}

	if l, ok := c.leases[id]; ok {
		if trace == "" {
			trace = l.trace
		}
		// Update the observed unit cost from this batch's wall time.
		if n := len(keys); n > 0 {
			per := now.Sub(l.granted).Seconds() / float64(n)
			if c.ewmaUnitSeconds == 0 {
				c.ewmaUnitSeconds = per
			} else {
				const alpha = 0.3
				c.ewmaUnitSeconds = alpha*per + (1-alpha)*c.ewmaUnitSeconds
			}
		}
		// Units of the lease this call left out go back to the queue:
		// with the lease gone, nothing else would ever release them.
		c.release(id, l)
	} else {
		c.lateCompletes++
	}
	res.Done = c.doneCount == len(c.keys)
	c.log.Info("lease complete", "trace", trace, "lease", id, "completed", res.Completed, "duplicates", res.Duplicates, "done", res.Done)
	return res, nil
}

// Stats is a point-in-time snapshot of the coordinator's progress and
// counters (served on GET /v1/work/status and in /debug/vars).
type Stats struct {
	Plan      string `json:"plan"`
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Leased    int    `json:"leased"`
	Pending   int    `json:"pending"`
	Leases    int    `json:"active_leases"`
	Granted   int64  `json:"leases_granted"`
	Expired   int64  `json:"leases_expired"`
	Recovered int64  `json:"units_recovered"`
	Completed int64  `json:"units_completed"`
	Dup       int64  `json:"duplicate_completions"`
	Late      int64  `json:"late_completions"`
	Beats     int64  `json:"heartbeats"`
	// EWMAUnitMillis is the observed per-unit cost driving the adaptive
	// batch size.
	EWMAUnitMillis float64 `json:"ewma_unit_ms"`
}

// Stats returns a snapshot, sweeping expired leases first so the counts
// reflect what a Lease call would see.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep(c.now())
	return Stats{
		Plan:           c.plan,
		Total:          len(c.keys),
		Done:           c.doneCount,
		Leased:         c.leasedCount,
		Pending:        len(c.keys) - c.doneCount - c.leasedCount,
		Leases:         len(c.leases),
		Granted:        c.leasesGranted,
		Expired:        c.leasesExpired,
		Recovered:      c.unitsRecovered,
		Completed:      c.unitsCompleted,
		Dup:            c.dupCompletes,
		Late:           c.lateCompletes,
		Beats:          c.heartbeats,
		EWMAUnitMillis: c.ewmaUnitSeconds * 1000,
	}
}
