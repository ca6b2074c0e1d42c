package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/method"
	"repro/internal/serve"
	"repro/internal/synth"
)

// datasetSeed is dtrankd's default -seed and the seed behind every
// committed golden. The daemon synthesises this dataset at start-up; the
// benchmark synthesises the same one in-process only to know which
// families, applications and predictive-machine scores it may ask about.
// The bench's own -seed never reaches the daemon: it seeds the request
// streams alone.
const datasetSeed = 1

// universe is the load generator's view of the served dataset.
type universe struct {
	data     *synth.Data
	families []string
	apps     []string
	// pred[f] is family f's predictive machines (every machine outside the
	// family), in the order a fresh-scores request lists its scores.
	pred []*dataset.Matrix
}

func newUniverse() (*universe, error) {
	data, err := synth.Generate(synth.DefaultOptions(datasetSeed))
	if err != nil {
		return nil, err
	}
	u := &universe{data: data, families: data.Matrix.Families(), apps: data.Matrix.Benchmarks}
	for _, f := range u.families {
		_, pred, err := data.Matrix.FamilySplit(f)
		if err != nil {
			return nil, err
		}
		u.pred = append(u.pred, pred)
	}
	return u, nil
}

// request is one generated POST /v1/rank.
type request struct {
	body []byte
	// shape is the rank-hot shape index (-1 on other streams); the load
	// generator revalidates with that shape's ETag when inm is set.
	shape int
	inm   bool
}

// stream is a deterministic request sequence: request i depends only on
// the stream's seed and i, never on timing or on which sender asks.
type stream interface {
	at(i int64) request
	// warmup lists the bodies sent during set-up, before measuring.
	warmup() [][]byte
	// checked reports whether request i's reply is kept and compared with
	// the in-process server's answer after the phase.
	checked(i int64) bool
}

// rng returns request i's private generator. tag separates the streams so
// that one seed gives unrelated draws on each workload.
func rng(seed int64, tag uint64, i int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^tag, uint64(i)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only RankRequest values built here are marshalled
	}
	return b
}

// hotStream is rank-hot: a fixed set of app-named shapes requested with
// Zipf(1.1) popularity, a share of them as If-None-Match revalidations.
type hotStream struct {
	seed   int64
	shapes [][]byte
	byRank []int     // popularity rank → shape index
	cdf    []float64 // cumulative Zipf popularity by rank
}

const (
	hotTag          = 0x686f74
	hotZipfS        = 1.1
	hotINM          = 0.1
	hotTop          = 5
	freshTag        = 0x6672657368
	freshTop        = 10
	freshSD         = 0.05
	coldTag         = 0x636f6c64
	coldTop         = 3
	freshCheckEvery = 100 // rank-fresh keeps one reply in this many for the output check
)

// hotMethods are the app-named methods of the rank-hot shapes.
var hotMethods = []string{method.NNT, method.MLPT, method.SPLT}

func newHotStream(u *universe, seed int64, families, apps int) *hotStream {
	r := rng(seed, hotTag, -1)
	fams := pick(r, u.families, families)
	as := pick(r, u.apps, apps)
	s := &hotStream{seed: seed}
	for _, f := range fams {
		for _, a := range as {
			for _, m := range hotMethods {
				s.shapes = append(s.shapes, mustJSON(serve.RankRequest{Family: f, App: a, Method: m, Top: hotTop}))
			}
		}
	}
	s.byRank = r.Perm(len(s.shapes))
	total := 0.0
	for k := range s.shapes {
		total += math.Pow(float64(k+1), -hotZipfS)
		s.cdf = append(s.cdf, total)
	}
	for k := range s.cdf {
		s.cdf[k] /= total
	}
	return s
}

// pick returns n distinct elements of xs in a seeded order.
func pick(r *rand.Rand, xs []string, n int) []string {
	out := make([]string, 0, n)
	for _, k := range r.Perm(len(xs))[:n] {
		out = append(out, xs[k])
	}
	return out
}

func (s *hotStream) at(i int64) request {
	r := rng(s.seed, hotTag, i)
	rank := sort.SearchFloat64s(s.cdf, r.Float64())
	if rank == len(s.cdf) {
		rank--
	}
	shape := s.byRank[rank]
	return request{body: s.shapes[shape], shape: shape, inm: r.Float64() < hotINM}
}

func (s *hotStream) warmup() [][]byte   { return s.shapes }
func (s *hotStream) checked(int64) bool { return false }

// freshStream is rank-fresh: the paper's own question, asked with the
// application's own measurements. Each request scores a random benchmark's
// row on a random family's predictive machines, perturbed by seeded
// lognormal noise, so every body is unique while every model it needs
// (one per family and fresh-scores method) stays resident.
type freshStream struct {
	seed   int64
	u      *universe
	nfam   int
	prefix [][]byte // per (family, method): the JSON up to the scores array
}

// freshMethods are the methods that rank from raw scores.
var freshMethods = []string{method.NNT, method.SPLT, method.KNNM}

func newFreshStream(u *universe, seed int64, families int) *freshStream {
	s := &freshStream{seed: seed, u: u, nfam: families}
	for _, f := range u.families[:families] {
		for _, m := range freshMethods {
			fam, _ := json.Marshal(f)
			meth, _ := json.Marshal(m)
			s.prefix = append(s.prefix, []byte(fmt.Sprintf(`{"family":%s,"method":%s,"scores":[`, fam, meth)))
		}
	}
	return s
}

// body renders one fresh-scores request for family f, method m and the
// scores of benchmark b, each multiplied by noise().
func (s *freshStream) body(f, m, b int, noise func() float64) []byte {
	pred := s.u.pred[f]
	buf := append(make([]byte, 0, 24*pred.NumMachines()+128), s.prefix[f*len(freshMethods)+m]...)
	for j, v := range pred.Row(b) {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v*noise(), 'g', -1, 64)
	}
	return append(buf, `],"top":`+strconv.Itoa(freshTop)+`}`...)
}

func (s *freshStream) at(i int64) request {
	r := rng(s.seed, freshTag, i)
	f, m, b := r.IntN(s.nfam), r.IntN(len(freshMethods)), r.IntN(len(s.u.apps))
	return request{body: s.body(f, m, b, func() float64 { return math.Exp(freshSD * r.NormFloat64()) }), shape: -1}
}

// warmup fits every model the stream uses, with unperturbed scores so no
// warm-up body recurs in the measured phase.
func (s *freshStream) warmup() [][]byte {
	var out [][]byte
	for f := 0; f < s.nfam; f++ {
		for m := range freshMethods {
			out = append(out, s.body(f, m, 0, func() float64 { return 1 }))
		}
	}
	return out
}

func (s *freshStream) checked(i int64) bool { return i%freshCheckEvery == 0 }

// coldStream is rank-cold: app-named MLP^T and GA-kNN questions, every
// one a different (family, application, method) key. Requests alternate
// the two methods and cycle through the families in a seeded order, each
// family's applications in a seeded order too, so any stretch of the
// stream mixes methods and families evenly and runs with different seeds
// do the same kind of work. The working set is many times the registry
// bound, so every request pays a full fit; top grows by one each time the
// key space wraps, so no request shape ever repeats and the rank cache
// never hits.
type coldStream struct {
	families []string
	apps     [][]string // per family
	nchecks  int64
}

// coldMethods are the app-named methods whose fit bakes in the application.
var coldMethods = []string{method.MLPT, method.GAKNN}

func newColdStream(u *universe, seed int64, nchecks int) *coldStream {
	r := rng(seed, coldTag, -1)
	s := &coldStream{families: pick(r, u.families, len(u.families)), nchecks: int64(nchecks)}
	for range s.families {
		s.apps = append(s.apps, pick(r, u.apps, len(u.apps)))
	}
	return s
}

func (s *coldStream) at(i int64) request {
	nm, nf, na := int64(len(coldMethods)), int64(len(s.families)), int64(len(s.apps[0]))
	j := i / nm
	f := j % nf
	req := serve.RankRequest{
		Family: s.families[f],
		App:    s.apps[f][(j/nf)%na],
		Method: coldMethods[i%nm],
		Top:    coldTop + int(i/(nm*nf*na)),
	}
	return request{body: mustJSON(req), shape: -1}
}

func (s *coldStream) warmup() [][]byte     { return nil }
func (s *coldStream) checked(i int64) bool { return i < s.nchecks }
