package serve

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/transpose"
)

// gatedModel wraps a fitted model so a test can hold a ranking flight open
// deterministically: PredictTargets closes entered on its first call,
// blocks until release is closed, and counts its calls.
type gatedModel struct {
	transpose.Model
	entered, release chan struct{}
	calls            atomic.Int64
}

func (g *gatedModel) PredictTargets(dst []float64) error {
	if g.calls.Add(1) == 1 {
		close(g.entered)
	}
	<-g.release
	return g.Model.PredictTargets(dst)
}

// installGated fits the MLP^T model for (Alpha, app) exactly as a server
// with Seed 1 would and installs it, gated, in srv's registry, so the
// server's queries for that key never fit.
func installGated(t *testing.T, srv *Server, m *dataset.Matrix, app string) *gatedModel {
	t.Helper()
	targets, predictive, err := m.FamilySplit("Alpha")
	if err != nil {
		t.Fatal(err)
	}
	fold, _, err := transpose.NewFold(predictive, targets, app, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := NewPredictor("MLP^T", 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := p.(transpose.Fitter).Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedModel{Model: model, entered: make(chan struct{}), release: make(chan struct{})}
	srv.Registry().Add(Key{Snapshot: srv.SnapshotHash(), Family: "Alpha", App: app, Method: "MLP^T", Seed: 1}, g)
	return g
}

// waitCoalesced spins until n requests have joined ranking flights.
func waitCoalesced(srv *Server, n int64) {
	for srv.ranks.coalesced.Value() < n {
		runtime.Gosched()
	}
}

// soloRanks answers each request alone on a fresh server: the reference
// every coalesced answer must equal byte for byte.
func soloRanks(t *testing.T, m *dataset.Matrix, reqs []RankRequest) [][]byte {
	t.Helper()
	srv, err := NewServer(m, nil, Options{Seed: 1, RankCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, err := srv.Rank(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = encodeResponse(t, resp)
	}
	return out
}

func mlptTops(app string, n int) []RankRequest {
	reqs := make([]RankRequest, n)
	for i := range reqs {
		reqs[i] = RankRequest{Family: "Alpha", App: app, Method: "MLP^T", Top: i + 1}
	}
	return reqs
}

// TestCoalescedMLPTParity drives many concurrent MLP^T queries against one
// model key — same app, distinct top clamps — with the response cache
// disabled so every request reaches the ranking flight, and asserts every
// response is byte-identical to the same query answered alone. Run under
// -race this also exercises publication of the shared prediction vector.
func TestCoalescedMLPTParity(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1, RankCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	reqs := mlptTops("benchC", 4)
	want := soloRanks(t, m, reqs)

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(reqs))
	for r := 0; r < rounds; r++ {
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req RankRequest) {
				defer wg.Done()
				rec := postRank(t, h, req)
				if rec.Code != http.StatusOK {
					errs <- rec.Body.String()
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want[i]) {
					errs <- "coalesced response differs from the solo answer"
				}
			}(i, req)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := srv.Registry().Stats(); st.Fits != 1 {
		t.Fatalf("concurrent queries fitted %d models, want 1", st.Fits)
	}
}

// TestCoalescedFlightSharesOnePrediction holds one ranking flight open and
// sends N-1 more requests for the same model with other top clamps: all N
// share the leader's single PredictTargets, every waiter counts as
// coalesced, and each answer still equals its solo ranking.
func TestCoalescedFlightSharesOnePrediction(t *testing.T) {
	m := testWorld(t)
	srv, err := NewServer(m, nil, Options{Seed: 1, RankCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g := installGated(t, srv, m, "benchC")
	h := srv.Handler()
	const n = 6
	reqs := mlptTops("benchC", n)
	want := soloRanks(t, m, reqs)

	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := postRank(t, h, reqs[i]); rec.Code == http.StatusOK {
				bodies[i] = rec.Body.Bytes()
			}
		}()
	}
	send(0)
	<-g.entered // the leader is inside PredictTargets: its flight is open
	for i := 1; i < n; i++ {
		send(i)
	}
	waitCoalesced(srv, n-1)
	close(g.release)
	wg.Wait()

	for i := range reqs {
		if !bytes.Equal(bodies[i], want[i]) {
			t.Fatalf("top=%d: coalesced response differs from the solo answer\ngot:  %s\nwant: %s", reqs[i].Top, bodies[i], want[i])
		}
	}
	if calls := g.calls.Load(); calls != 1 {
		t.Fatalf("%d overlapping requests ran PredictTargets %d times, want 1", n, calls)
	}
	if c := srv.ranks.coalesced.Value(); c != n-1 {
		t.Fatalf("coalesced = %d, want %d", c, n-1)
	}
}
