// Package resultstore is the content-addressed store for experiment unit
// results. Every cell of a table, point of a figure and variant of an
// ablation is computed as one unit addressed by the tuple
// (snapshot fingerprint, spec id, method, split, seed, budget); its result
// is persisted as a small CRC-checked entry, so re-running the evaluation
// recomputes only units whose inputs changed and a warm run serves every
// previously computed cell from the store.
//
// The store sits behind the Store interface with three backends:
//
//   - New returns the in-memory store (no persistence): the cache that
//     lets one run's specs share units — Figures 6 and 7 reuse the
//     family-CV units Table 2 computed.
//   - Open on a directory persists entries as one file per unit, so runs
//     are resumable across processes and the directory is the merge
//     point of sharded runs.
//   - Open on an http:// or https:// URL talks to a remote store served
//     by NewHTTPHandler (mounted by dtrankd under /v1/store/), so shards
//     on different machines merge through one daemon.
//
// Every backend carries the same in-memory byte cache in front, and every
// persisted entry travels in the same framed wire format (EncodeEntry).
// Result values are encoded by the package's own binary codec (see
// codec.go): floats keep their exact bits, and a payload names the shape
// of the type it was written for, so it never decodes into another.
// Damaged entries — truncated blobs, checksum mismatches, entries whose
// recorded key does not match the requested one (a stale or foreign blob
// under a colliding name) — are treated as misses and recomputed, never
// served; the HTTP server additionally rejects them at PUT time.
//
// A store directory holds one file per unit plus nothing else, so it can
// share a directory with a dtrankd model registry (index.json + *.dtm):
// the two subsystems use disjoint file names. A directory served by
// dtrankd's /v1/store/ endpoints is interchangeable with the same
// directory opened locally — shards may write over HTTP and the final
// render may read the directory directly, or vice versa.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Key addresses one experiment unit. Two runs share a result exactly when
// every field matches.
type Key struct {
	// Snapshot fingerprints the input dataset (matrix and workload
	// characteristics); any dataset change invalidates every unit.
	Snapshot string `json:"snapshot"`
	// Spec is the experiment spec id ("family-cv", "table3", ...).
	Spec string `json:"spec"`
	// Method is the canonical method name, or "" for method-independent
	// units.
	Method string `json:"method"`
	// Split labels the unit within the spec: a family, a year split, a
	// subset draw ("2008/5#3"), a sweep point ("medoid/k=4"), an ablation
	// variant.
	Split string `json:"split"`
	// Seed is the run's base seed.
	Seed int64 `json:"seed"`
	// Budget labels the training-budget regime ("" for full budgets,
	// "fast" for reduced smoke budgets), so a -fast run can never poison
	// a full run's cache or vice versa.
	Budget string `json:"budget,omitempty"`
}

// Stem derives the entry name of a key: a content hash, so names are
// filesystem- and URL-safe regardless of family and split spellings. It
// is the file stem of directory entries and the path element of HTTP
// store requests.
func (k Key) Stem() string {
	h := sha256.New()
	fmt.Fprintf(h, "%q/%q/%q/%q/%d/%q", k.Snapshot, k.Spec, k.Method, k.Split, k.Seed, k.Budget)
	return hex.EncodeToString(h.Sum(nil))[:stemLen]
}

// stemLen is the length of an entry stem in hex characters.
const stemLen = 24

// validStem reports whether s has the exact shape Stem produces — the
// HTTP server uses it to reject path-traversal and foreign names before
// touching the filesystem.
func validStem(s string) bool {
	if len(s) != stemLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// The entry wire format, shared by the directory and HTTP backends:
//
//	magic   [8]byte  "DTRKRSLT"
//	version uint16   entryVersion (little endian)
//	keyLen  uint32   length of the JSON-encoded key
//	key     []byte   the unit's full Key, for verification on read
//	payLen  uint64   payload length in bytes
//	payload []byte   the codec-encoded result value
//	crc     uint32   IEEE CRC-32 of key + payload
//
// The embedded key makes serving a wrong entry impossible even under file
// renames or hash collisions: readers reject any entry whose recorded key
// is not exactly the requested one, and the HTTP server rejects any PUT
// whose recorded key does not hash to the requested stem.
const (
	entryMagic   = "DTRKRSLT"
	entryVersion = 2
)

// entryExt is the file extension of persisted entries.
const entryExt = ".dtr"

// EncodeEntry frames a codec payload as one wire entry for key.
func EncodeEntry(key Key, payload []byte) ([]byte, error) {
	keyJSON, err := json.Marshal(key)
	if err != nil {
		return nil, fmt.Errorf("resultstore: encoding key: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(keyJSON)
	crc.Write(payload)

	var buf bytes.Buffer
	buf.WriteString(entryMagic)
	binary.Write(&buf, binary.LittleEndian, uint16(entryVersion))
	binary.Write(&buf, binary.LittleEndian, uint32(len(keyJSON)))
	buf.Write(keyJSON)
	binary.Write(&buf, binary.LittleEndian, uint64(len(payload)))
	buf.Write(payload)
	binary.Write(&buf, binary.LittleEndian, crc.Sum32())
	return buf.Bytes(), nil
}

// ReadEntryKey verifies an entry's framing (magic, version, lengths,
// checksum) and returns the embedded key and payload. It does not
// check the key against any expectation — use DecodeEntry when serving a
// specific requested key.
func ReadEntryKey(blob []byte) (Key, []byte, error) {
	r := bytes.NewReader(blob)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Key{}, nil, fmt.Errorf("resultstore: truncated entry header: %w", err)
	}
	if string(magic[:]) != entryMagic {
		return Key{}, nil, fmt.Errorf("resultstore: not a result entry (magic %q)", magic[:])
	}
	var version uint16
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return Key{}, nil, fmt.Errorf("resultstore: reading entry version: %w", err)
	}
	if version != entryVersion {
		return Key{}, nil, fmt.Errorf("resultstore: entry format version %d, this build reads %d", version, entryVersion)
	}
	var keyLen uint32
	if err := binary.Read(r, binary.LittleEndian, &keyLen); err != nil {
		return Key{}, nil, fmt.Errorf("resultstore: reading key length: %w", err)
	}
	// Lengths come from the (possibly hostile) header: check them against
	// the bytes actually left before allocating anything.
	if int64(keyLen) > int64(r.Len()) {
		return Key{}, nil, fmt.Errorf("resultstore: truncated key: header claims %d bytes, %d remain", keyLen, r.Len())
	}
	keyJSON := make([]byte, keyLen)
	if _, err := io.ReadFull(r, keyJSON); err != nil {
		return Key{}, nil, fmt.Errorf("resultstore: truncated key: %w", err)
	}
	var payLen uint64
	if err := binary.Read(r, binary.LittleEndian, &payLen); err != nil {
		return Key{}, nil, fmt.Errorf("resultstore: reading payload length: %w", err)
	}
	if payLen > uint64(r.Len()) {
		return Key{}, nil, fmt.Errorf("resultstore: truncated payload: header claims %d bytes, %d remain", payLen, r.Len())
	}
	payload := make([]byte, payLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Key{}, nil, fmt.Errorf("resultstore: truncated payload: %w", err)
	}
	var wantCRC uint32
	if err := binary.Read(r, binary.LittleEndian, &wantCRC); err != nil {
		return Key{}, nil, fmt.Errorf("resultstore: reading checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(keyJSON)
	crc.Write(payload)
	if got := crc.Sum32(); got != wantCRC {
		return Key{}, nil, fmt.Errorf("resultstore: entry checksum mismatch (%08x != %08x): corrupted entry", got, wantCRC)
	}
	var stored Key
	if err := json.Unmarshal(keyJSON, &stored); err != nil {
		return Key{}, nil, fmt.Errorf("resultstore: decoding entry key: %w", err)
	}
	return stored, payload, nil
}

// DecodeEntry verifies one wire entry against the requested key and
// returns its payload. Any damaged, foreign, version-skewed or
// key-mismatched blob is an error — callers treat it as a recomputable
// miss.
func DecodeEntry(key Key, blob []byte) ([]byte, error) {
	stored, payload, err := ReadEntryKey(blob)
	if err != nil {
		return nil, err
	}
	if stored != key {
		// A stale or foreign entry under this name (e.g. an old snapshot
		// hash): never serve it.
		return nil, fmt.Errorf("resultstore: entry key %+v does not match requested %+v", stored, key)
	}
	return payload, nil
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts Gets served from memory or the backend.
	Hits int64 `json:"hits"`
	// Misses counts Gets that found no usable entry.
	Misses int64 `json:"misses"`
	// Puts counts stored results (one per computed unit).
	Puts int64 `json:"puts"`
	// Corrupt counts backend entries rejected as damaged or stale, plus
	// backend reads that failed outright (I/O or transport errors) —
	// either way the unit is recomputed, never served wrong.
	Corrupt int64 `json:"corrupt"`
}

// Store is a concurrency-safe unit-result store: the merge point of the
// experiment pipeline. Get and Put move codec-encoded values; Stats reports
// traffic counters; Location names the backing ("" for memory-only, a
// directory path, or a remote URL).
type Store interface {
	// Get looks key up and, when found, decodes the stored result into v
	// (a pointer to the type that was Put). Damaged or stale backend
	// entries, and entries written for another shape, count as misses and
	// are never decoded into v.
	Get(key Key, v any) (bool, error)
	// Put stores v under key, persisting it when the store has a
	// backend; a v the codec cannot encode is an error naming its type.
	// When out is non-nil the canonical stored bytes are decoded back
	// into it, so the caller continues with exactly the value a later
	// warm run will read.
	Put(key Key, v, out any) error
	// Stats returns a counter snapshot.
	Stats() Stats
	// Location identifies the backend: "" for in-memory stores, the
	// directory path for directory stores, the base URL for remote
	// stores.
	Location() string
}

// backend persists framed entries under stems. load returns (nil, nil)
// for an absent entry; any error is treated by the cache as a corrupt
// (recomputable) miss, so a flaky backend degrades to recomputation
// rather than failing the run. store errors do fail the run — a shard
// that cannot publish results must not pretend it did.
type backend interface {
	load(key Key) ([]byte, error)
	store(key Key, entry []byte) error
	location() string
}

// cache is the one concrete Store: an in-memory byte cache in front of an
// optional backend.
type cache struct {
	backend backend

	mu  sync.Mutex
	mem map[Key][]byte

	hits    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
	corrupt atomic.Int64
}

// New returns an in-memory store (no persistence): the cache that lets
// one run's specs share units.
func New() Store {
	return &cache{mem: map[Key][]byte{}}
}

// Open returns a store for loc:
//
//   - "" — an in-memory store (New);
//   - an http:// or https:// URL — a remote store served by a daemon
//     mounting NewHTTPHandler (a bare host URL addresses the daemon's
//     /v1/store/ prefix; a URL with a path is used as given);
//   - anything else — a directory store, creating the directory when
//     absent.
func Open(loc string) (Store, error) {
	switch {
	case loc == "":
		return New(), nil
	case strings.HasPrefix(loc, "http://") || strings.HasPrefix(loc, "https://"):
		b, err := newHTTPBackend(loc)
		if err != nil {
			return nil, err
		}
		return &cache{mem: map[Key][]byte{}, backend: b}, nil
	default:
		if err := os.MkdirAll(loc, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		return &cache{mem: map[Key][]byte{}, backend: dirBackend{dir: loc}}, nil
	}
}

// Location implements Store.
func (s *cache) Location() string {
	if s.backend == nil {
		return ""
	}
	return s.backend.location()
}

// Stats implements Store.
func (s *cache) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Puts:    s.puts.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// Get implements Store.
func (s *cache) Get(key Key, v any) (bool, error) {
	s.mu.Lock()
	blob, ok := s.mem[key]
	s.mu.Unlock()
	fromBackend := false
	if !ok && s.backend != nil {
		entry, err := s.backend.load(key)
		if err != nil {
			// A damaged entry or failed read costs a recompute, never
			// fails the run.
			s.corrupt.Add(1)
		} else if entry != nil {
			payload, err := DecodeEntry(key, entry)
			if err != nil {
				s.corrupt.Add(1)
			} else {
				blob, ok, fromBackend = payload, true, true
			}
		}
	}
	if !ok {
		s.misses.Add(1)
		return false, nil
	}
	if err := unmarshal(blob, v); err != nil {
		if fromBackend {
			// The framing verified but the payload did not (e.g. a result
			// type changed shape, or a client uploaded a hostile payload):
			// treat it like any other damaged entry and recompute.
			s.corrupt.Add(1)
			s.misses.Add(1)
			return false, nil
		}
		return false, fmt.Errorf("resultstore: decoding %s/%s/%s result: %w", key.Spec, key.Method, key.Split, err)
	}
	if fromBackend {
		s.mu.Lock()
		s.mem[key] = blob
		s.mu.Unlock()
	}
	s.hits.Add(1)
	return true, nil
}

// Put implements Store.
func (s *cache) Put(key Key, v, out any) error {
	blob, err := marshal(v)
	if err != nil {
		return fmt.Errorf("resultstore: encoding %s/%s/%s result: %w", key.Spec, key.Method, key.Split, err)
	}
	s.mu.Lock()
	s.mem[key] = blob
	s.mu.Unlock()
	s.puts.Add(1)
	if s.backend != nil {
		entry, err := EncodeEntry(key, blob)
		if err != nil {
			return err
		}
		if err := s.backend.store(key, entry); err != nil {
			return err
		}
	}
	if out != nil {
		if err := unmarshal(blob, out); err != nil {
			return fmt.Errorf("resultstore: round-tripping %s/%s/%s result: %w", key.Spec, key.Method, key.Split, err)
		}
	}
	return nil
}

// dirBackend persists entries as one <stem>.dtr file per unit.
type dirBackend struct {
	dir string
}

func (b dirBackend) location() string { return b.dir }

func (b dirBackend) load(key Key) ([]byte, error) {
	blob, err := os.ReadFile(filepath.Join(b.dir, key.Stem()+entryExt))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return blob, nil
}

func (b dirBackend) store(key Key, entry []byte) error {
	return writeEntryFile(b.dir, key.Stem(), entry)
}

// writeEntryFile persists one framed entry atomically (temp file +
// rename), so a crashed run never leaves a half-written entry under a
// valid name. It is shared by the directory backend and the HTTP server.
func writeEntryFile(dir, stem string, entry []byte) error {
	f, err := os.CreateTemp(dir, "result-*.tmp")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	_, err = f.Write(entry)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, stem+entryExt))
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("resultstore: writing entry: %w", err)
	}
	return nil
}
