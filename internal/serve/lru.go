package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// lru is the package's one bounded least-recently-used map: the rank
// response cache, the report render cache and the model registry are all
// instances of it. Its hits, misses and evictions are obs counters
// registered as <prefix>_hits_total, <prefix>_misses_total and
// <prefix>_evictions_total, so /metrics and /v1/status read the very
// instruments the cache bumps. A non-positive bound is a disabled cache:
// lookups miss and puts store nothing, neither counted.
type lru[K comparable, V any] struct {
	max int

	mu    sync.Mutex
	ll    *list.List // of *lruItem[K, V], most recently used at the front
	items map[K]*list.Element

	hits, misses, evictions *obs.Counter
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int, reg *obs.Registry, prefix string) *lru[K, V] {
	return &lru[K, V]{
		max:       max,
		ll:        list.New(),
		items:     map[K]*list.Element{},
		hits:      reg.Counter(prefix + "_hits_total"),
		misses:    reg.Counter(prefix + "_misses_total"),
		evictions: reg.Counter(prefix + "_evictions_total"),
	}
}

func (c *lru[K, V]) enabled() bool { return c.max > 0 }

// get returns the value under k, counting a hit or a miss.
func (c *lru[K, V]) get(k K) (V, bool) { return c.lookup(k, nil) }

// lookup returns the value under k and true, counting a hit and marking
// the entry most recently used. On a miss, counted too, it stores mk()
// under k when mk is non-nil and returns that value and false — the
// caller that gets false owns the new entry. mk runs under the cache's
// lock, so it must only construct the value.
func (c *lru[K, V]) lookup(k K, mk func() V) (V, bool) {
	var v V
	if !c.enabled() {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*lruItem[K, V]).val, true
	}
	c.misses.Inc()
	if mk != nil {
		v = mk()
		c.putLocked(k, v)
	}
	return v, false
}

// put stores v under k as the most recently used entry, replacing any
// value already there and evicting least-recently-used entries beyond the
// bound.
func (c *lru[K, V]) put(k K, v V) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, v)
}

func (c *lru[K, V]) putLocked(k K, v V) {
	if el, ok := c.items[k]; ok {
		el.Value.(*lruItem[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruItem[K, V]{key: k, val: v})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruItem[K, V]).key)
		c.evictions.Inc()
	}
}

// removeFunc drops every entry pred selects and returns how many it
// dropped. pred runs under the cache's lock. Removals are not counted as
// evictions; callers that evict count them themselves.
func (c *lru[K, V]) removeFunc(pred func(K, V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if it := el.Value.(*lruItem[K, V]); pred(it.key, it.val) {
			c.ll.Remove(el)
			delete(c.items, it.key)
			n++
		}
		el = next
	}
	return n
}

// purge empties the cache (snapshot hot-swap invalidation).
func (c *lru[K, V]) purge() { c.removeFunc(func(K, V) bool { return true }) }

// values returns the stored values, most recently used first.
func (c *lru[K, V]) values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem[K, V]).val)
	}
	return out
}

// len returns the number of stored entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
