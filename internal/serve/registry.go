package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/transpose"
)

// DefaultMaxModels is the registry's LRU bound when Options leave it zero.
const DefaultMaxModels = 64

// Key identifies one fitted model. Two queries share a model exactly when
// every field matches: the dataset snapshot hash pins the data, Family the
// split, App the application of interest ("" for the fresh-scores serving
// path, where the fit is application-independent), Method the canonical
// predictor name and Seed the deterministic seeding base.
type Key struct {
	Snapshot string `json:"snapshot"`
	Family   string `json:"family"`
	App      string `json:"app"`
	Method   string `json:"method"`
	Seed     int64  `json:"seed"`
}

// fileStem derives the registry file name of a key: a content hash, so
// names are filesystem-safe regardless of family and benchmark spellings.
func (k Key) fileStem() string {
	h := sha256.New()
	fmt.Fprintf(h, "%q/%q/%q/%q/%d", k.Snapshot, k.Family, k.App, k.Method, k.Seed)
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// entry is one registry slot, stored in the registry's LRU from the
// moment its fit starts, so Save, Len, EvictSnapshotsExcept and the hit
// counter all see in-flight fits. The ready channel implements
// singleflight: the goroutine that creates the entry fits the model and
// closes ready; everyone else blocks on it. queryMu serialises queries
// against the model, which is not required to be concurrency-safe.
type entry struct {
	key     Key
	ready   chan struct{}
	model   transpose.Model
	err     error
	queryMu sync.Mutex
}

// RegistryStats is a point-in-time counter snapshot.
type RegistryStats struct {
	Models    int   `json:"models"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Fits      int64 `json:"fits"`
	FitErrors int64 `json:"fit_errors"`
	Evictions int64 `json:"evictions"`
}

// Registry caches fitted models under an LRU bound. Concurrent requests
// for a missing key trigger exactly one Fit (singleflight); the rest wait
// for it or for their context, whichever ends first. Failed fits are never
// cached, so a transient error does not poison a key.
type Registry struct {
	models          *lru[Key, *entry]
	fits, fitErrors *obs.Counter
}

// NewRegistry returns a registry bounded to max models (max <= 0 means
// DefaultMaxModels).
func NewRegistry(max int) *Registry { return newRegistry(max, obs.NewRegistry()) }

// newRegistry returns a registry whose counters are the dtrank_registry_*
// series of reg.
func newRegistry(max int, reg *obs.Registry) *Registry {
	if max <= 0 {
		max = DefaultMaxModels
	}
	return &Registry{
		models:    newLRU[Key, *entry](max, reg, "dtrank_registry"),
		fits:      reg.Counter("dtrank_registry_fits_total"),
		fitErrors: reg.Counter("dtrank_registry_fit_errors_total"),
	}
}

// Len returns the number of cached entries (including in-flight fits).
func (r *Registry) Len() int { return r.models.len() }

// Keys returns the cached keys, most recently used first.
func (r *Registry) Keys() []Key {
	entries := r.models.values()
	out := make([]Key, len(entries))
	for i, e := range entries {
		out[i] = e.key
	}
	return out
}

// Stats returns a counter snapshot.
func (r *Registry) Stats() RegistryStats {
	return RegistryStats{
		Models:    r.Len(),
		Hits:      r.models.hits.Value(),
		Misses:    r.models.misses.Value(),
		Fits:      r.fits.Value(),
		FitErrors: r.fitErrors.Value(),
		Evictions: r.models.evictions.Value(),
	}
}

// EvictSnapshotsExcept drops every cached model whose key's snapshot hash
// differs from keep, returning how many were dropped. SwapSnapshot calls
// this so models fitted against a replaced dataset release their memory
// immediately instead of aging out by LRU — their keys can never match a
// query again. An in-flight fit may be evicted like any entry: its waiters
// hold the entry pointer and still receive the result, it just is not
// cached.
func (r *Registry) EvictSnapshotsExcept(keep string) int {
	n := r.models.removeFunc(func(k Key, _ *entry) bool { return k.Snapshot != keep })
	r.models.evictions.Add(int64(n))
	return n
}

// forget uncaches e (a failed fit) unless the slot already holds another
// entry.
func (r *Registry) forget(e *entry) {
	r.models.removeFunc(func(_ Key, v *entry) bool { return v == e })
}

// resolve returns the ready entry for key, running the singleflight fit
// protocol: the creating goroutine fits (at most once per key), everyone
// else waits for it or for their context, whichever ends first. Failed
// fits are uncached before waiters are released.
func (r *Registry) resolve(ctx context.Context, key Key, fit func() (transpose.Model, error)) (*entry, error) {
	e, found := r.models.lookup(key, func() *entry { return &entry{key: key, ready: make(chan struct{})} })
	if !found {
		if err := ctx.Err(); err != nil {
			e.err = err
			r.forget(e)
			close(e.ready)
			return nil, err
		}
		r.fits.Inc()
		e.model, e.err = fit()
		if e.err != nil {
			r.fitErrors.Inc()
			r.forget(e)
		}
		close(e.ready)
		return e, e.err
	}
	select {
	case <-e.ready:
		return e, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Model returns the fitted model for key, calling fit at most once per key
// however many goroutines ask concurrently. Waiters return early with
// ctx.Err() when their context ends first; the fit itself, once started,
// runs to completion so late arrivals can still use it.
func (r *Registry) Model(ctx context.Context, key Key, fit func() (transpose.Model, error)) (transpose.Model, error) {
	e, err := r.resolve(ctx, key, fit)
	if err != nil {
		return nil, err
	}
	return e.model, nil
}

// Query runs query against the fitted model for key while holding the
// entry's query lock: models are not required to be safe for concurrent
// use, so queries against one model serialise here.
func (r *Registry) Query(ctx context.Context, key Key, fit func() (transpose.Model, error), query func(transpose.Model) error) error {
	e, err := r.resolve(ctx, key, fit)
	if err != nil {
		return err
	}
	e.queryMu.Lock()
	defer e.queryMu.Unlock()
	return query(e.model)
}

// Add inserts an already-fitted model (e.g. one decoded from disk) as a
// ready entry, replacing any entry under key and evicting under the LRU
// bound as usual.
func (r *Registry) Add(key Key, m transpose.Model) {
	if m == nil {
		return
	}
	e := &entry{key: key, ready: make(chan struct{}), model: m}
	close(e.ready)
	r.models.put(key, e)
}

// indexEntry is one line of a registry directory's index.json.
type indexEntry struct {
	Key  Key    `json:"key"`
	File string `json:"file"`
}

// Save writes every cached model that supports serialization to dir (one
// file per model plus an index.json) and returns the number saved. The
// index is written last and atomically (temp file + rename), so a crashed
// save never leaves an index referencing half-written models.
func (r *Registry) Save(dir string) (int, error) {
	entries := r.models.values()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var index []indexEntry
	for _, e := range entries {
		select {
		case <-e.ready:
		default:
			continue // fit still in flight; skip
		}
		if e.err != nil || e.model == nil {
			continue
		}
		if _, ok := e.model.(transpose.BinaryModel); !ok {
			continue
		}
		name := e.key.fileStem() + ".dtm"
		f, err := os.CreateTemp(dir, "model-*.tmp")
		if err != nil {
			return len(index), err
		}
		// Queries may run concurrently with Save; hold the query lock while
		// encoding so the snapshot is consistent.
		e.queryMu.Lock()
		err = transpose.EncodeModel(f, e.model)
		e.queryMu.Unlock()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(f.Name(), filepath.Join(dir, name))
		}
		if err != nil {
			os.Remove(f.Name())
			return len(index), fmt.Errorf("serve: saving model %s: %w", name, err)
		}
		index = append(index, indexEntry{Key: e.key, File: name})
	}
	blob, err := json.MarshalIndent(index, "", "  ")
	if err != nil {
		return len(index), err
	}
	tmp, err := os.CreateTemp(dir, "index-*.tmp")
	if err != nil {
		return len(index), err
	}
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return len(index), err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return len(index), err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, "index.json")); err != nil {
		os.Remove(tmp.Name())
		return len(index), err
	}
	return len(index), nil
}

// Load warms the registry from a directory written by Save, decoding model
// files in parallel on the engine's worker pool. Corrupted or truncated
// files are skipped, not fatal: Load returns how many models it installed
// plus the joined per-file errors, so a damaged entry costs a refit rather
// than a failed start. Cancelling ctx stops the decode fan-out promptly.
func (r *Registry) Load(ctx context.Context, dir string) (int, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return 0, err
	}
	var index []indexEntry
	if err := json.Unmarshal(blob, &index); err != nil {
		return 0, fmt.Errorf("serve: parsing registry index: %w", err)
	}
	type loaded struct {
		model transpose.Model
		err   error
	}
	results, err := engine.CollectContext(ctx, nil, len(index), func(i int) (loaded, error) {
		f, err := os.Open(filepath.Join(dir, index[i].File))
		if err != nil {
			return loaded{err: err}, nil
		}
		defer f.Close()
		m, err := transpose.DecodeModel(f)
		if err != nil {
			return loaded{err: fmt.Errorf("serve: registry file %s: %w", index[i].File, err)}, nil
		}
		return loaded{model: m}, nil
	})
	if err != nil {
		return 0, err
	}
	n := 0
	var errs []error
	// Install in reverse index order so the first index entry — the most
	// recently used at save time — ends up most recently used again.
	for i := len(results) - 1; i >= 0; i-- {
		if results[i].err != nil {
			errs = append(errs, results[i].err)
			continue
		}
		r.Add(index[i].Key, results[i].model)
		n++
	}
	return n, errors.Join(errs...)
}
