package serve

import (
	"context"
	"sync"

	"repro/internal/obs"
)

// flight is the package's one request coalescer: concurrent callers of do
// with equal keys share one execution of fn. The first caller, the
// leader, runs fn to completion; fn works under the server's lifetime,
// not the leader's request, so a leader whose client disconnects never
// wastes or fails the flight. Every other caller waits for the leader's
// result and counts once in coalesced, leaving early only when its own
// context ends or the server closes (base is cancelled).
type flight[K comparable, V any] struct {
	base      context.Context
	coalesced *obs.Counter

	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlight[K comparable, V any](base context.Context, coalesced *obs.Counter) *flight[K, V] {
	return &flight[K, V]{base: base, coalesced: coalesced, calls: map[K]*flightCall[V]{}}
}

// do returns fn's result for k, running fn only when no flight for k is
// in progress. The returned value is shared by every caller of the flight
// and must be treated as read-only.
func (f *flight[K, V]) do(ctx context.Context, k K, fn func() (V, error)) (V, error) {
	f.mu.Lock()
	if c, ok := f.calls[k]; ok {
		f.mu.Unlock()
		f.coalesced.Inc()
		var zero V
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-f.base.Done():
			return zero, f.base.Err()
		}
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[k] = c
	f.mu.Unlock()

	c.val, c.err = fn()
	f.mu.Lock()
	delete(f.calls, k)
	f.mu.Unlock()
	close(c.done)
	return c.val, c.err
}
