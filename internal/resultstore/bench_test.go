package resultstore

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchUnit approximates one family-CV cell: 29 fold results with
// per-target actual/predicted vectors — the dominant unit shape of the
// paper pipeline's store traffic.
type benchFold struct {
	Split, App        string
	RankCorr          float64
	Top1Err, MeanErr  float64
	Actual, Predicted []float64
}

func benchValue() []benchFold {
	folds := make([]benchFold, 29)
	for i := range folds {
		actual := make([]float64, 7)
		predicted := make([]float64, 7)
		for j := range actual {
			actual[j] = float64(i*7+j) * 1.25
			predicted[j] = actual[j] * 1.01
		}
		folds[i] = benchFold{
			Split: "Intel Xeon", App: fmt.Sprintf("bench%d", i),
			RankCorr: 0.97, Top1Err: 3.2, MeanErr: 8.1,
			Actual: actual, Predicted: predicted,
		}
	}
	return folds
}

// BenchmarkUnitRoundTrip measures the per-unit store overhead — codec
// encode + CRC-framed persist on Put, backend read + CRC verify + codec
// decode on Get — for each backend. The reader is a separate store
// instance so Gets exercise the backend, not the in-memory cache; mem is
// the cache-hit floor.
func BenchmarkUnitRoundTrip(b *testing.B) {
	val := benchValue()
	cases := []struct {
		name string
		open func(b *testing.B) (writer, reader Store)
	}{
		{"mem", func(b *testing.B) (Store, Store) {
			s := New()
			return s, s
		}},
		{"dir", func(b *testing.B) (Store, Store) {
			dir := b.TempDir()
			w, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			r, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			return w, r
		}},
		{"http", func(b *testing.B) (Store, Store) {
			h, err := NewHTTPHandler(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			mux := http.NewServeMux()
			mux.Handle("/v1/store/", h)
			ts := httptest.NewServer(mux)
			b.Cleanup(ts.Close)
			w, err := Open(ts.URL)
			if err != nil {
				b.Fatal(err)
			}
			r, err := Open(ts.URL)
			if err != nil {
				b.Fatal(err)
			}
			return w, r
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			writer, reader := tc.open(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				key := Key{Snapshot: "bench-snap", Spec: "family-cv", Method: "NN^T",
					Split: fmt.Sprintf("fam-%d", i), Seed: 1}
				if err := writer.Put(key, val, nil); err != nil {
					b.Fatal(err)
				}
				var got []benchFold
				ok, err := reader.Get(key, &got)
				if err != nil || !ok {
					b.Fatalf("Get = %v, %v", ok, err)
				}
			}
		})
	}
}
