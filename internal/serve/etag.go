package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// Both response caches store fully rendered bodies — a hit skips all
// computation and encoding — under keys that embed the served snapshot's
// hash, and SwapSnapshot purges both wholesale. Each cached entity has a
// strong ETag computable from the request alone: 16 hex characters of
// the snapshot hash and 16 of a shape digest, joined with a dash, in
// quotes (the contract documented in API.md).

// DefaultRankCacheSize is the response cache's entry bound when Options
// leave it zero.
const DefaultRankCacheSize = 1024

// DefaultReportCacheSize is the report render cache's entry bound when
// Options leave it zero. Reports are few (one per spec × budget ×
// representation) but each render is orders of magnitude more expensive
// than a ranking, so a small bound already pins the whole working set.
const DefaultReportCacheSize = 64

// shapeKey identifies one cached rendered ranking: the snapshot hash pins
// the data, the shape digest the canonicalised query. Method, family,
// application (or fresh scores) and top all fold into the shape, so two
// requests share an entry exactly when they are semantically the same
// query against the same data.
type shapeKey struct {
	snapshot string
	shape    string
}

// reportKey identifies one cached rendered report: the snapshot hash pins
// the data, spec and budget pin the render, and the representation
// distinguishes the text/plain body from the application/json one (they
// are different entities with different ETags). With repr empty it keys
// the render flight, which produces both bodies.
type reportKey struct {
	snapshot string
	spec     string
	budget   string
	repr     string
}

// queryShape digests the canonicalised query tuple. It is computed from
// the decoded request, not the request bytes, so JSON field order,
// whitespace, explicitly-default fields and method aliases all collapse
// onto one shape. Every field is length- or count-prefixed, making the
// encoding injective: no two distinct tuples share a digest input.
func queryShape(canon string, req RankRequest) string {
	h := sha256.New()
	var n [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeStr(canon)
	writeStr(req.Family)
	writeStr(req.App)
	binary.LittleEndian.PutUint64(n[:], uint64(len(req.Scores)))
	h.Write(n[:])
	for _, v := range req.Scores {
		binary.LittleEndian.PutUint64(n[:], math.Float64bits(v))
		h.Write(n[:])
	}
	top := req.Top
	if top < 0 {
		top = 0 // every non-positive top means "all machines"
	}
	binary.LittleEndian.PutUint64(n[:], uint64(top))
	h.Write(n[:])
	return hex.EncodeToString(h.Sum(nil))
}

// reportShape digests the (spec, budget, representation) tuple into the
// shape half of the report's entity tag, with the same injective
// length-prefixed encoding queryShape uses.
func reportShape(spec, budget, repr string) string {
	h := sha256.New()
	var n [8]byte
	for _, s := range []string{spec, budget, repr} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// etagFor derives the strong entity tag of a (snapshot, shape) pair.
func etagFor(snapshot, shape string) string {
	return `"` + clip16(snapshot) + "-" + clip16(shape) + `"`
}

func clip16(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

// inmMatches reports whether an If-None-Match header value matches etag
// (a strong tag). Handles the `*` wildcard and comma-separated lists;
// weak validators (W/ prefix) compare by opaque tag, as revalidation of
// an immutable body is a weak-comparison use.
func inmMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

// writeTagged is the one conditional-response write path of /v1/rank and
// /v1/reports/{spec}. A request whose If-None-Match matches etag gets a
// bodyless 304 carrying the tag, counted in notModified, and body is
// never called; otherwise body produces the representation, written as
// ctype under etag. An empty etag (cache disabled) always writes the
// body. An error from body is returned with nothing written.
func writeTagged(w http.ResponseWriter, r *http.Request, etag string, notModified *obs.Counter, ctype string, body func() ([]byte, error)) error {
	if etag != "" && inmMatches(r.Header.Get("If-None-Match"), etag) {
		notModified.Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	b, err := body()
	if err != nil {
		return err
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(b)
	return nil
}
