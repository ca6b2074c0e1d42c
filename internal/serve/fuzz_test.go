package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/method"
)

// FuzzInmMatches pins the If-None-Match matcher both conditional paths
// share: it never panics, and a tag built exactly as etagFor builds them
// matches itself, its weak form, itself inside a comma list and the `*`
// wildcard, while a header containing none of those never matches.
func FuzzInmMatches(f *testing.F) {
	f.Fuzz(func(t *testing.T, snapshot, shape, noise string) {
		inmMatches(noise, noise) // must not panic on arbitrary bytes
		hexOf := func(s string) string { sum := sha256.Sum256([]byte(s)); return hex.EncodeToString(sum[:]) }
		etag := etagFor(hexOf(snapshot), hexOf(shape))
		for _, header := range []string{etag, "W/" + etag, noise + "," + etag, " " + etag + " ,", "*", noise + ", *"} {
			if !inmMatches(header, etag) {
				t.Fatalf("If-None-Match %q does not match %s", header, etag)
			}
		}
		// Without quotes or stars no list element can be the tag, its weak
		// form or the wildcard.
		clean := strings.NewReplacer(`"`, "", "*", "").Replace(noise)
		if inmMatches(clean, etag) {
			t.Fatalf("If-None-Match %q matches %s", clean, etag)
		}
	})
}

// FuzzQueryShape pins the rank cache key: requests that differ only in
// method alias, JSON field order or an explicitly default field decode to
// equal shapes, and requests for another family, application, score bit
// pattern or clamped top get distinct ones.
func FuzzQueryShape(f *testing.F) {
	f.Fuzz(func(t *testing.T, family, app string, score float64, top int, pick uint8) {
		methods := method.List()
		info := methods[int(pick>>1)%len(methods)]
		var scores []float64
		if pick&1 == 1 && !math.IsNaN(score) && !math.IsInf(score, 0) {
			scores = []float64{score}
		}
		field := func(v any) string {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		decode := func(body string) RankRequest {
			var req RankRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatalf("%v: %s", err, body)
			}
			return req
		}
		shape := func(req RankRequest) string {
			canon, err := CanonicalMethod(req.Method)
			if err != nil {
				t.Fatal(err)
			}
			return queryShape(canon, req)
		}

		base := decode(`{"family":` + field(family) + `,"method":` + field(info.Name) + `,"app":` + field(app) +
			`,"scores":` + field(scores) + `,"top":` + field(top) + `}`)
		alias := info.Name
		if len(info.Aliases) > 0 {
			alias = strings.ToUpper(info.Aliases[0])
		}
		clamped := max(top, 0)
		reordered := `{"top":` + field(clamped) + `,"app":` + field(app) + `,"method":` + field(alias) + `,"family":` + field(family)
		if scores != nil {
			reordered += `,"scores":` + field(scores)
		}
		want := shape(base)
		if got := shape(decode(reordered + "}")); got != want {
			t.Fatalf("reordered, aliased, clamped request shape %s, want %s", got, want)
		}

		for name, mutate := range map[string]func(*RankRequest){
			"family": func(r *RankRequest) { r.Family += "x" },
			"app":    func(r *RankRequest) { r.App += "x" },
			"top":    func(r *RankRequest) { r.Top = clamped + 1 },
			"scores": func(r *RankRequest) {
				if len(r.Scores) == 0 {
					r.Scores = []float64{1}
					return
				}
				r.Scores = []float64{math.Float64frombits(math.Float64bits(r.Scores[0]) ^ 1)}
			},
		} {
			other := base
			mutate(&other)
			if shape(other) == want {
				t.Fatalf("request with a different %s shares shape %s", name, want)
			}
		}
	})
}
