package resultstore

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(spec string) Key {
	return Key{Snapshot: "snap-a", Spec: spec, Method: "NN^T", Split: "Intel Xeon", Seed: 1}
}

type payload struct {
	Name   string
	Values []float64
}

func TestMemoryRoundTrip(t *testing.T) {
	s := New()
	key := testKey("table2")
	var got payload
	if ok, err := s.Get(key, &got); err != nil || ok {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}
	want := payload{Name: "x", Values: []float64{1.5, math.Inf(1), -0.25}}
	var out payload
	if err := s.Put(key, want, &out); err != nil {
		t.Fatal(err)
	}
	// The round-tripped value must be bit-identical to the input.
	if out.Name != want.Name || len(out.Values) != len(want.Values) {
		t.Fatalf("round trip %+v != %+v", out, want)
	}
	for i := range want.Values {
		if math.Float64bits(out.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("value %d: %v != %v", i, out.Values[i], want.Values[i])
		}
	}
	if ok, err := s.Get(key, &got); err != nil || !ok {
		t.Fatalf("Get after Put = %v, %v", ok, err)
	}
	if got.Name != want.Name || got.Values[2] != want.Values[2] {
		t.Fatalf("Get %+v != %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("table3")
	if err := s1.Put(key, payload{Name: "cell", Values: []float64{0.25}}, nil); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := s2.Get(key, &got); err != nil || !ok {
		t.Fatalf("warm Get = %v, %v", ok, err)
	}
	if got.Name != "cell" || got.Values[0] != 0.25 {
		t.Fatalf("warm value %+v", got)
	}
	// A second Get must come from memory, still a hit.
	if ok, _ := s2.Get(key, &got); !ok {
		t.Fatal("second warm Get missed")
	}
	if st := s2.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("warm stats %+v", st)
	}
}

func TestKeySeparation(t *testing.T) {
	s := New()
	base := testKey("fig8")
	if err := s.Put(base, 1.0, nil); err != nil {
		t.Fatal(err)
	}
	var v float64
	for _, k := range []Key{
		{Snapshot: "snap-b", Spec: base.Spec, Method: base.Method, Split: base.Split, Seed: base.Seed},
		{Snapshot: base.Snapshot, Spec: "other", Method: base.Method, Split: base.Split, Seed: base.Seed},
		{Snapshot: base.Snapshot, Spec: base.Spec, Method: "MLP^T", Split: base.Split, Seed: base.Seed},
		{Snapshot: base.Snapshot, Spec: base.Spec, Method: base.Method, Split: "k=2", Seed: base.Seed},
		{Snapshot: base.Snapshot, Spec: base.Spec, Method: base.Method, Split: base.Split, Seed: 2},
	} {
		if ok, _ := s.Get(k, &v); ok {
			t.Fatalf("key %+v unexpectedly hit", k)
		}
	}
}

// entryPath returns the on-disk file of a key, asserting it exists.
func entryPath(t *testing.T, s Store, key Key) string {
	t.Helper()
	path := filepath.Join(s.Location(), key.Stem()+".dtr")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// corruptionCase writes an entry, mangles it, and asserts the store
// treats it as a recomputable miss (never an error, never a wrong value).
func corruptionCase(t *testing.T, mangle func(t *testing.T, path string)) {
	t.Helper()
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("table4")
	if err := s1.Put(key, payload{Name: "good", Values: []float64{1, 2, 3}}, nil); err != nil {
		t.Fatal(err)
	}
	mangle(t, entryPath(t, s1, key))

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	ok, err := s2.Get(key, &got)
	if err != nil {
		t.Fatalf("damaged entry must be a miss, got error %v", err)
	}
	if ok {
		t.Fatalf("damaged entry served: %+v", got)
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats after damage %+v", st)
	}
	// The unit recomputes and the store heals.
	if err := s2.Put(key, payload{Name: "recomputed"}, nil); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s3.Get(key, &got); err != nil || !ok || got.Name != "recomputed" {
		t.Fatalf("healed Get = %v, %v, %+v", ok, err, got)
	}
}

func TestTruncatedEntryIgnored(t *testing.T) {
	corruptionCase(t, func(t *testing.T, path string) {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCRCMismatchIgnored(t *testing.T) {
	corruptionCase(t, func(t *testing.T, path string) {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)-6] ^= 0x40 // flip one payload bit; CRC no longer verifies
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestForeignFileIgnored(t *testing.T) {
	corruptionCase(t, func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("not a result entry at all"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStaleKeyedEntryIgnored plants an entry recorded under a different
// snapshot hash at the requested key's file name (what a stale file from
// an older dataset, a rename, or a hash collision would look like). The
// embedded key must reject it: stale entries are recomputed, never
// served.
func TestStaleKeyedEntryIgnored(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale := Key{Snapshot: "old-snapshot", Spec: "table3", Method: "NN^T", Split: "2008", Seed: 1}
	fresh := Key{Snapshot: "new-snapshot", Spec: "table3", Method: "NN^T", Split: "2008", Seed: 1}
	if err := s1.Put(stale, payload{Name: "stale"}, nil); err != nil {
		t.Fatal(err)
	}
	// Plant the stale entry under the fresh key's file name.
	blob, err := os.ReadFile(entryPath(t, s1, stale))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fresh.Stem()+".dtr"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	ok, err := s2.Get(fresh, &got)
	if err != nil || ok {
		t.Fatalf("stale entry must be a miss: ok=%v err=%v got=%+v", ok, err, got)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The genuinely stale key itself still reads fine.
	if ok, err := s2.Get(stale, &got); err != nil || !ok || got.Name != "stale" {
		t.Fatalf("original entry broken: ok=%v err=%v", ok, err)
	}
}

func TestVersionSkewIgnored(t *testing.T) {
	corruptionCase(t, func(t *testing.T, path string) {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[8] = 0xFF // version bytes follow the 8-byte magic
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpenEmptyDirIsMemoryStore(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Location() != "" {
		t.Fatalf("Location() = %q", s.Location())
	}
	if err := s.Put(testKey("x"), 1.0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := Key{Snapshot: "s", Spec: "spec", Method: "m", Split: string(rune('a' + i%5)), Seed: int64(g)}
				var v float64
				if ok, err := s.Get(key, &v); err != nil {
					t.Error(err)
					return
				} else if !ok {
					if err := s.Put(key, float64(i), nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBudgetSeparatesKeys pins the budget dimension: entries stored
// under one training-budget regime are invisible to the other.
func TestBudgetSeparatesKeys(t *testing.T) {
	s := New()
	fast := testKey("table3")
	fast.Budget = "fast"
	if err := s.Put(fast, 1.0, nil); err != nil {
		t.Fatal(err)
	}
	var v float64
	if ok, _ := s.Get(testKey("table3"), &v); ok {
		t.Fatal("full-budget key served a fast-budget entry")
	}
}

// TestUndecodablePayloadFromDiskIsMiss covers schema skew the framing
// cannot see: a CRC-valid entry whose payload no longer decodes into
// the requested type must be a recomputable miss, not a run failure.
func TestUndecodablePayloadFromDiskIsMiss(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("table2")
	if err := s1.Put(key, "a string payload", nil); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wrongType payload
	ok, err := s2.Get(key, &wrongType)
	if err != nil || ok {
		t.Fatalf("schema-skewed entry must be a miss: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// In-memory schema skew is a programming error and still surfaces.
	if _, err := s1.Get(key, &wrongType); err == nil {
		t.Fatal("in-memory type mismatch must error")
	}
}
