package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// The HTTP store protocol. Entries travel in the same framed wire format
// the directory backend persists (EncodeEntry); the path element is the
// key's Stem:
//
//	GET  <base>/<stem>  the entry, or 404 when absent or damaged
//	PUT  <base>/<stem>  store a framed entry; 400 when the frame does not
//	                    verify or its embedded key does not hash to <stem>
//	GET  <base>/        JSON listing {"entries": [{"stem": ..., "key": ...}]}
//
// dtrankd mounts the handler under /v1/store/ (the base a bare host URL
// addresses), backed by the same directory layout `dtrank run -cache dir`
// writes — the two access paths are interchangeable.

// maxHTTPEntry bounds one uploaded entry.
const maxHTTPEntry = 1 << 30

// httpBackend is the client side of the protocol.
type httpBackend struct {
	base   string // entry URL = base + "/" + stem
	client *http.Client
}

// newHTTPBackend parses a remote-store URL. A URL without a path (or with
// path "/") addresses the daemon's default mount, /v1/store; a URL with
// an explicit path is used as given.
func newHTTPBackend(loc string) (*httpBackend, error) {
	u, err := url.Parse(loc)
	if err != nil {
		return nil, fmt.Errorf("resultstore: remote store URL %q: %w", loc, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("resultstore: remote store URL %q has no host", loc)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/v1/store"
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	return &httpBackend{
		base:   u.String(),
		client: &http.Client{Timeout: 30 * time.Second},
	}, nil
}

func (b *httpBackend) location() string { return b.base }

func (b *httpBackend) load(key Key) ([]byte, error) {
	resp, err := b.client.Get(b.base + "/" + key.Stem())
	if err != nil {
		return nil, fmt.Errorf("resultstore: remote get: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		blob, err := io.ReadAll(io.LimitReader(resp.Body, maxHTTPEntry+1))
		if err != nil {
			return nil, fmt.Errorf("resultstore: remote get: %w", err)
		}
		if len(blob) > maxHTTPEntry {
			return nil, fmt.Errorf("resultstore: remote entry exceeds the %d-byte limit", maxHTTPEntry)
		}
		return blob, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("resultstore: remote get: %s", resp.Status)
	}
}

func (b *httpBackend) store(key Key, entry []byte) error {
	req, err := http.NewRequest(http.MethodPut, b.base+"/"+key.Stem(), bytes.NewReader(entry))
	if err != nil {
		return fmt.Errorf("resultstore: remote put: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := b.client.Do(req)
	if err != nil {
		return fmt.Errorf("resultstore: remote put: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return fmt.Errorf("resultstore: remote put: %w", api.DecodeError(resp.Status, bytes.TrimSpace(msg)))
	}
	return nil
}

// HandlerStats counts the traffic of one HTTPHandler.
type HandlerStats struct {
	// Gets counts entries served.
	Gets int64 `json:"gets"`
	// GetMisses counts GETs of absent stems.
	GetMisses int64 `json:"get_misses"`
	// Puts counts entries accepted and persisted.
	Puts int64 `json:"puts"`
	// Rejected counts PUTs refused (unverifiable frame, stale key, bad
	// stem) and GETs of entries that failed verification server-side.
	Rejected int64 `json:"rejected"`
}

// HTTPHandler is the server side of the remote store: it persists framed
// entries under a directory using the exact file layout of a directory
// store, verifying every entry before accepting or serving it. Corrupt or
// stale uploads are rejected with 400; damaged files on disk are served
// as 404 (the client recomputes).
type HTTPHandler struct {
	dir string

	gets      atomic.Int64
	getMisses atomic.Int64
	puts      atomic.Int64
	rejected  atomic.Int64
}

// NewHTTPHandler serves the store under dir, creating the directory when
// absent.
func NewHTTPHandler(dir string) (*HTTPHandler, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: HTTP handler needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &HTTPHandler{dir: dir}, nil
}

// Stats returns a counter snapshot.
func (h *HTTPHandler) Stats() HandlerStats {
	return HandlerStats{
		Gets:      h.gets.Load(),
		GetMisses: h.getMisses.Load(),
		Puts:      h.puts.Load(),
		Rejected:  h.rejected.Load(),
	}
}

// ServeHTTP implements http.Handler. The handler routes on the final path
// element, so it works under any mount prefix (dtrankd uses /v1/store/).
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	stem := path.Base(path.Clean(r.URL.Path))
	if !validStem(stem) {
		// Not an entry path: only the collection root ("GET <base>/")
		// lists; a GET of any other name is a plain miss, and writes to
		// invalid names are refused.
		switch {
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/"):
			h.serveList(w)
		case r.Method == http.MethodGet:
			h.getMisses.Add(1)
			api.WriteError(w, http.StatusNotFound, "", "no such entry")
		default:
			h.rejected.Add(1)
			api.WriteError(w, http.StatusBadRequest, "", "invalid entry stem %q", stem)
		}
		return
	}
	switch r.Method {
	case http.MethodGet:
		h.serveGet(w, stem)
	case http.MethodPut:
		h.servePut(w, r, stem)
	default:
		w.Header().Set("Allow", "GET, PUT")
		api.WriteError(w, http.StatusMethodNotAllowed, "", "use GET or PUT for store entries")
	}
}

func (h *HTTPHandler) serveGet(w http.ResponseWriter, stem string) {
	blob, err := os.ReadFile(filepath.Join(h.dir, stem+entryExt))
	if err != nil {
		h.getMisses.Add(1)
		api.WriteError(w, http.StatusNotFound, "", "no such entry")
		return
	}
	// Never serve a blob that does not verify or that sits under a stem
	// its embedded key does not hash to: the client would reject it
	// anyway, a 404 lets it recompute without a corrupt-counter bump.
	if key, _, err := ReadEntryKey(blob); err != nil || key.Stem() != stem {
		h.rejected.Add(1)
		api.WriteError(w, http.StatusNotFound, "", "entry failed verification")
		return
	}
	h.gets.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

func (h *HTTPHandler) servePut(w http.ResponseWriter, r *http.Request, stem string) {
	blob, err := io.ReadAll(io.LimitReader(r.Body, maxHTTPEntry+1))
	if err != nil {
		h.rejected.Add(1)
		api.WriteError(w, http.StatusBadRequest, "", "reading entry: %v", err)
		return
	}
	if len(blob) > maxHTTPEntry {
		h.rejected.Add(1)
		api.WriteError(w, http.StatusRequestEntityTooLarge, "", "entry exceeds the %d-byte limit", maxHTTPEntry)
		return
	}
	key, _, err := ReadEntryKey(blob)
	if err != nil {
		// Corrupt in flight or corrupt at the sender: refuse, so damage
		// never enters the shared store.
		h.rejected.Add(1)
		api.WriteError(w, http.StatusBadRequest, "", "entry failed verification: %v", err)
		return
	}
	if key.Stem() != stem {
		// A stale or misdirected upload: the embedded key belongs to a
		// different unit than the addressed one.
		h.rejected.Add(1)
		api.WriteError(w, http.StatusBadRequest, "", "entry key hashes to stem %s, not %s", key.Stem(), stem)
		return
	}
	if err := writeEntryFile(h.dir, stem, blob); err != nil {
		api.WriteError(w, http.StatusInternalServerError, "", "%v", err)
		return
	}
	h.puts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// listEntry is one row of the collection listing.
type listEntry struct {
	Stem string `json:"stem"`
	Key  Key    `json:"key"`
	Size int64  `json:"size"`
}

func (h *HTTPHandler) serveList(w http.ResponseWriter) {
	infos, err := ScanDir(h.dir)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "", "%v", err)
		return
	}
	entries := make([]listEntry, 0, len(infos))
	for _, e := range infos {
		if e.Err != nil {
			continue
		}
		entries = append(entries, listEntry{Stem: e.Stem, Key: e.Key, Size: e.Size})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Stem < entries[j].Stem })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"entries": entries})
}
