// Package engine provides the bounded worker pool and deterministic
// per-unit seed derivation shared by every parallel code path of the
// reproduction: experiment fan-out (cross-validation folds, random draws,
// sweep points) and GA fitness evaluation.
//
// The design goal is that parallel output is byte-identical to serial
// output: units of work are addressed by index, results land in
// index-order slots, and any randomness a unit needs is seeded from
// (base seed, unit index) via Seed rather than drawn from a shared
// sequential stream. A Pool therefore only changes wall-clock time,
// never results.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded fan-out executor. The goroutine calling Map always
// participates in the work, so a Pool with capacity w runs at most w
// units concurrently while spawning at most w-1 helper goroutines.
// Nested Map calls share the same token budget and degrade gracefully to
// inline execution instead of deadlocking or oversubscribing: when no
// helper tokens are available, the caller simply works through the units
// itself.
type Pool struct {
	workers int
	// tokens grants the right to run one helper goroutine. Helpers
	// return their token when their Map call drains, so the process-wide
	// concurrency stays bounded across nested and concurrent Maps.
	tokens chan struct{}

	inflight  atomic.Int64
	unitsDone atomic.Int64
}

// PoolStats is a point-in-time snapshot of a pool's activity, read by the
// serving layer's metrics bridges. InFlight is the number of units
// executing right now; UnitsDone counts units completed over the pool's
// lifetime.
type PoolStats struct {
	InFlight  int64
	UnitsDone int64
}

// Stats returns an activity snapshot. A nil pool reports Default().
func (p *Pool) Stats() PoolStats {
	if p == nil {
		p = Default()
	}
	return PoolStats{InFlight: p.inflight.Load(), UnitsDone: p.unitsDone.Load()}
}

// New returns a pool that runs at most workers units concurrently.
// workers <= 0 means runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

var defaultPool atomic.Pointer[Pool]

// Default returns the process-wide pool, sized runtime.GOMAXPROCS(0)
// unless overridden by SetDefaultWorkers.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := New(0)
	if defaultPool.CompareAndSwap(nil, p) {
		return p
	}
	return defaultPool.Load()
}

// SetDefaultWorkers replaces the process-wide pool with one of the given
// capacity (n <= 0 restores the GOMAXPROCS default). In-flight Maps keep
// the budget they started with.
func SetDefaultWorkers(n int) {
	defaultPool.Store(New(n))
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p == nil {
		return Default().workers
	}
	return p.workers
}

// Map runs fn(i) for every i in [0, n), at most p.Workers() at a time,
// and blocks until all started units finish. A nil pool uses Default().
//
// If units fail, Map stops handing out new indices and returns the error
// of the lowest-indexed failed unit, so the reported error does not
// depend on scheduling. Units already running are not interrupted.
func (p *Pool) Map(n int, fn func(i int) error) error {
	return p.MapContext(context.Background(), n, fn)
}

// MapContext is Map with cancellation: when ctx is cancelled mid-fanout
// the pool stops handing out new indices, waits for the units already
// running to finish (they are never interrupted), and returns promptly
// without leaking goroutines. Every parallel code path of the repo routes
// through here, so a server shutdown cancelling its base context stops
// in-flight experiment and fitting fan-outs at the next unit boundary.
//
// A unit error still takes precedence over cancellation (it is the
// deterministic, lowest-indexed one); otherwise MapContext returns
// ctx.Err() if and only if cancellation prevented units from running.
// A run whose units all completed returns nil even if ctx was cancelled
// concurrently with the last unit.
func (p *Pool) MapContext(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if fn == nil {
		return errors.New("engine: Map with nil function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		p = Default()
	}
	var (
		next    atomic.Int64
		done    atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		errAt   = n
		firstEr error
	)
	cancelled := ctx.Done()
	work := func() {
		for {
			// Check for failure and cancellation BEFORE claiming an index:
			// a claimed index always executes, and indices are claimed in
			// ascending order, so the lowest-indexed failing unit is always
			// among the executed ones — the reported error cannot depend on
			// scheduling.
			if failed.Load() {
				return
			}
			if cancelled != nil {
				select {
				case <-cancelled:
					return
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			p.inflight.Add(1)
			err := fn(i)
			p.inflight.Add(-1)
			p.unitsDone.Add(1)
			if err != nil {
				failed.Store(true)
				mu.Lock()
				if i < errAt {
					errAt, firstEr = i, err
				}
				mu.Unlock()
			}
			done.Add(1)
		}
	}
	var wg sync.WaitGroup
spawn:
	for h := 0; h < n-1; h++ {
		select {
		case <-p.tokens:
			wg.Add(1)
			go func() {
				defer func() {
					p.tokens <- struct{}{}
					wg.Done()
				}()
				work()
			}()
		default:
			break spawn // budget exhausted; the caller works alone
		}
	}
	work()
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	if done.Load() != int64(n) {
		// Only cancellation can leave units unrun without a unit error.
		return ctx.Err()
	}
	return nil
}

// Collect runs fn(i) for every i in [0, n) on p and returns the results
// in index order, independent of scheduling. On failure it returns the
// error of the lowest-indexed failed unit and no results.
func Collect[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	return CollectContext(context.Background(), p, n, fn)
}

// CollectContext is Collect with cancellation, following the MapContext
// contract: a cancelled run returns ctx.Err() (and no results) promptly
// without leaking goroutines.
func CollectContext[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: Collect over %d units", n)
	}
	out := make([]T, n)
	err := p.MapContext(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Seed derives a deterministic PRNG seed from a base seed and a unit
// index path (e.g. Seed(cfg.Seed, size, draw)). Distinct index paths map
// to statistically independent seeds through splitmix64 mixing, so
// parallel units can each own a PRNG without sharing a sequential
// stream — the precondition for worker-count-independent output.
func Seed(base int64, units ...int64) int64 {
	x := mix64(uint64(base) + 0x9e3779b97f4a7c15)
	for _, u := range units {
		// The state is mixed, the unit is raw: the asymmetry prevents
		// structural collisions such as Seed(a, b) == Seed(b, a).
		x = mix64(x ^ (uint64(u) + 0x6a09e667f3bcc909))
	}
	return int64(x)
}

// mix64 is the splitmix64 finaliser (Steele, Lea, Flood 2014).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
