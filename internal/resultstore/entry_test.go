package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// validEntry frames a small codec payload for testKey("table3").
func validEntry(t testing.TB) []byte {
	t.Helper()
	pay, err := marshal(payload{Name: "x", Values: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := EncodeEntry(testKey("table3"), pay)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// TestStemGolden pins Key.Stem on keys whose stems were recorded from
// the fmt-based implementation ("%q/%q/%q/%q/%d/%q" hashed with SHA-256):
// quotes, escapes, non-ASCII and invalid UTF-8, empty fields and both
// int64 extremes. A changed stem would orphan every existing store.
func TestStemGolden(t *testing.T) {
	for _, c := range []struct {
		key  Key
		stem string
	}{
		{Key{}, "658f522995fb41ce5103d170"},
		{Key{Snapshot: "5c1e0f", Spec: "family-cv", Method: "NN^T", Split: "Intel Xeon", Seed: 1, Budget: "fast"}, "e1ad77d76033f3426377ae54"},
		{Key{Snapshot: "5c1e0f", Spec: "table3", Method: "MLP^T", Split: "2008->2009", Seed: 42}, "aa03afc76375368f118e1481"},
		{Key{Snapshot: "fp", Spec: "table4", Method: "GA-kNN", Split: "2008/5#3", Seed: -7, Budget: "fast"}, "96179564254d6a8b3c20ea12"},
		{Key{Snapshot: "fp", Spec: "figure8", Split: "medoid/k=4", Seed: 9223372036854775807}, "929ce673656615511792512a"},
		{Key{Snapshot: "q\"uote", Spec: "back\\slash", Method: "tab\tnl\n", Split: "Zürich ✓ 日本", Seed: -9223372036854775808, Budget: "fast"}, "e0e5d56e75c38a9eba350c53"},
		{Key{Snapshot: "\x00\x7f", Spec: "bad\xffutf8", Method: "\u2028", Split: "/", Budget: " "}, "4205b4f2d1f42a5a0e9912a8"},
	} {
		if got := c.key.Stem(); got != c.stem {
			t.Errorf("%#v.Stem() = %s, want %s", c.key, got, c.stem)
		}
	}
}

// hostileKeyHeader is a 24-byte entry whose header claims a 1 GiB key:
// magic, version, keyLen = 1<<30, then 10 bytes.
func hostileKeyHeader() []byte {
	b := append([]byte(entryMagic), 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(b[8:], entryVersion)
	binary.LittleEndian.PutUint32(b[10:], 1<<30)
	return append(b, make([]byte, 10)...)
}

// hostilePayloadHeader is an entry with a genuine key whose header then
// claims a 1 GiB payload, followed by 10 bytes.
func hostilePayloadHeader(t testing.TB) []byte {
	t.Helper()
	keyJSON, err := json.Marshal(testKey("table3"))
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte(entryMagic), 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(b[8:], entryVersion)
	binary.LittleEndian.PutUint32(b[10:], uint32(len(keyJSON)))
	b = append(b, keyJSON...)
	b = binary.LittleEndian.AppendUint64(b, 1<<30)
	return append(b, make([]byte, 10)...)
}

// TestReadEntryKeyRejectsOversizedLengths feeds headers whose key or
// payload length exceeds the bytes present: each must fail as truncated
// without allocating what the header claims.
func TestReadEntryKeyRejectsOversizedLengths(t *testing.T) {
	for name, blob := range map[string][]byte{
		"key":     hostileKeyHeader(),
		"payload": hostilePayloadHeader(t),
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, err := ReadEntryKey(blob)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%s: got %v, want a truncated-entry error", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: reading a %d-byte entry allocated %d bytes", name, len(blob), alloc)
		}
	}
}

// TestHTTPServerRejectsOversizedLengths PUTs the hostile headers to the
// store server: each is a 400 and one more rejected upload.
func TestHTTPServerRejectsOversizedLengths(t *testing.T) {
	ts, h := storeServer(t, t.TempDir())
	stem := testKey("table3").Stem()
	for i, blob := range [][]byte{hostileKeyHeader(), hostilePayloadHeader(t)} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/store/"+stem, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("hostile PUT %d = %d, want 400", i, resp.StatusCode)
		}
		if st := h.Stats(); st.Rejected != int64(i+1) || st.Puts != 0 {
			t.Fatalf("after hostile PUT %d: handler stats %+v", i, st)
		}
	}
}

// reseal rewrites the trailing checksum of a blob whose framing parses,
// so mutated inputs also reach the key decoder; nil when it does not
// parse.
func reseal(blob []byte) []byte {
	const head = len(entryMagic) + 2
	if len(blob) < head+4 {
		return nil
	}
	keyLen := int(binary.LittleEndian.Uint32(blob[head:]))
	off := head + 4 + keyLen
	if keyLen > len(blob) || off+8 > len(blob) {
		return nil
	}
	payLen := binary.LittleEndian.Uint64(blob[off:])
	if payLen > uint64(len(blob)-off-8) || off+8+int(payLen)+4 != len(blob) {
		return nil
	}
	crc := crc32.NewIEEE()
	crc.Write(blob[head+4 : head+4+keyLen])
	crc.Write(blob[off+8 : off+8+int(payLen)])
	out := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc.Sum32())
	return out
}

// readSeed returns the bytes of one committed fuzz seed.
func readSeed(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s/%s: not a one-value fuzz seed", target, name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s/%s: %v", target, name, err)
	}
	return []byte(s)
}

// TestEntrySeedsMatchFormat keeps the FuzzReadEntryKey corpus on the
// current entry format: its valid seed is exactly validEntry, and its
// wrong-version seed is that entry stamped with the previous version.
func TestEntrySeedsMatchFormat(t *testing.T) {
	valid := validEntry(t)
	if got := readSeed(t, "FuzzReadEntryKey", "valid"); !bytes.Equal(got, valid) {
		t.Fatal("seed valid is not the current validEntry: regenerate the FuzzReadEntryKey corpus")
	}
	old := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(old[len(entryMagic):], entryVersion-1)
	if got := readSeed(t, "FuzzReadEntryKey", "wrong-version"); !bytes.Equal(got, old) {
		t.Fatal("seed wrong-version is not validEntry at the previous version")
	}
}

// readEntryKeyReference is the original bytes.Reader/binary.Read
// implementation of ReadEntryKey, kept as the reference the slicing
// parser and DecodeEntry's byte-compare fast path are fuzzed against.
func readEntryKeyReference(blob []byte) (Key, []byte, error) {
	r := bytes.NewReader(blob)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Key{}, nil, err
	}
	if string(magic[:]) != entryMagic {
		return Key{}, nil, errors.New("magic")
	}
	var version uint16
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return Key{}, nil, err
	}
	if version != entryVersion {
		return Key{}, nil, errors.New("version")
	}
	var keyLen uint32
	if err := binary.Read(r, binary.LittleEndian, &keyLen); err != nil {
		return Key{}, nil, err
	}
	if int64(keyLen) > int64(r.Len()) {
		return Key{}, nil, errors.New("truncated key")
	}
	keyJSON := make([]byte, keyLen)
	if _, err := io.ReadFull(r, keyJSON); err != nil {
		return Key{}, nil, err
	}
	var payLen uint64
	if err := binary.Read(r, binary.LittleEndian, &payLen); err != nil {
		return Key{}, nil, err
	}
	if payLen > uint64(r.Len()) {
		return Key{}, nil, errors.New("truncated payload")
	}
	payload := make([]byte, payLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Key{}, nil, err
	}
	var wantCRC uint32
	if err := binary.Read(r, binary.LittleEndian, &wantCRC); err != nil {
		return Key{}, nil, err
	}
	crc := crc32.NewIEEE()
	crc.Write(keyJSON)
	crc.Write(payload)
	if crc.Sum32() != wantCRC {
		return Key{}, nil, errors.New("checksum")
	}
	var stored Key
	if err := json.Unmarshal(keyJSON, &stored); err != nil {
		return Key{}, nil, err
	}
	return stored, payload, nil
}

// frameEntry frames arbitrary key bytes and a payload the way
// EncodeEntry does, so tests can embed key JSON that EncodeEntry would
// never write (other spellings of the same key, invalid UTF-8).
func frameEntry(keyJSON, payload []byte) []byte {
	b := append([]byte(entryMagic), 0, 0)
	binary.LittleEndian.PutUint16(b[len(entryMagic):], entryVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keyJSON)))
	b = append(b, keyJSON...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	crc := crc32.NewIEEE()
	crc.Write(keyJSON)
	crc.Write(payload)
	return binary.LittleEndian.AppendUint32(b, crc.Sum32())
}

// FuzzReadEntryKey checks the entry codec on arbitrary bytes: reading
// never panics; ReadEntryKey accepts exactly what the reference
// implementation accepts, with the same key and payload; whatever it
// accepts, DecodeEntry accepts under the recorded key with the same
// payload; and re-encoding that key and payload reads back unchanged.
// The seed corpus in testdata/fuzz/FuzzReadEntryKey holds a valid entry,
// a truncated one, both oversized-length headers, a wrong magic, a wrong
// version and a bad checksum.
func FuzzReadEntryKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, in := range [][]byte{blob, reseal(blob)} {
			if in == nil {
				continue
			}
			key, pay, err := ReadEntryKey(in)
			refKey, refPay, refErr := readEntryKeyReference(in)
			if (err == nil) != (refErr == nil) || key != refKey || !bytes.Equal(pay, refPay) {
				t.Fatalf("ReadEntryKey = %+v, %v; reference = %+v, %v (payload equal: %v)", key, err, refKey, refErr, bytes.Equal(pay, refPay))
			}
			if err != nil {
				continue
			}
			got, err := DecodeEntry(key, in)
			if err != nil || !bytes.Equal(got, pay) {
				t.Fatalf("DecodeEntry under the recorded key: %v (payload equal: %v)", err, bytes.Equal(got, pay))
			}
			again, err := EncodeEntry(key, pay)
			if err != nil {
				t.Fatal(err)
			}
			key2, pay2, err := ReadEntryKey(again)
			if err != nil || key2 != key || !bytes.Equal(pay2, pay) {
				t.Fatalf("re-encoded entry reads back %+v, %v (payload equal: %v)", key2, err, bytes.Equal(pay2, pay))
			}
		}
	})
}

// FuzzDecodeEntry checks DecodeEntry, with its byte-compare fast path,
// against the reference: the reference ReadEntryKey followed by a struct
// comparison with the requested key. Both must accept and reject the
// same (key, blob) pairs and return the same payload bytes. The blob is
// also tried resealed and as a fresh entry framing the fuzzed bytes as
// key JSON, so the fast path and the decode fallback are both reached.
func FuzzDecodeEntry(f *testing.F) {
	k := testKey("table3")
	valid := validEntry(f)
	keyJSON, err := json.Marshal(k)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, k.Snapshot, k.Spec, k.Method, k.Split, k.Seed, k.Budget)
	f.Add(valid, k.Snapshot, k.Spec, k.Method, "other", k.Seed, k.Budget)
	f.Add(valid, k.Snapshot, k.Spec, k.Method, k.Split, k.Seed+1, "fast")
	f.Add(keyJSON, k.Snapshot, k.Spec, k.Method, k.Split, k.Seed, k.Budget)
	// The same key spelled another way: reordered fields, escapes,
	// whitespace, an explicit empty budget, other letter case.
	f.Add([]byte(`{"seed":1,"split":"2008","method":"NN^T","spec":"table3","snapshot":"fp"}`), "fp", "table3", "NN^T", "2008", int64(1), "")
	f.Add([]byte(`{ "snapshot":"f\u0070","spec":"table3","method":"NN\u005eT","split":"2008","seed":1,"budget":""}`), "fp", "table3", "NN^T", "2008", int64(1), "")
	f.Add([]byte(`{"SNAPSHOT":"fp","Spec":"table3","method":"NN^T","split":"2008","seed":1}`), "fp", "table3", "NN^T", "2008", int64(1), "")
	// Invalid UTF-8: Marshal writes U+FFFD, which decodes to a different
	// key than the requested one.
	f.Add([]byte(`{"snapshot":"\ufffd","spec":"","method":"","split":"","seed":0}`), "\xff", "", "", "", int64(0), "")
	f.Add([]byte(`{"snapshot":"\ufffd","spec":"","method":"","split":"","seed":0}`), "\ufffd", "", "", "", int64(0), "")
	f.Fuzz(func(t *testing.T, blob []byte, snapshot, spec, method, split string, seed int64, budget string) {
		key := Key{Snapshot: snapshot, Spec: spec, Method: method, Split: split, Seed: seed, Budget: budget}
		var payload []byte
		if len(blob) > 0 {
			payload = blob[:len(blob)/2]
		}
		for _, in := range [][]byte{blob, reseal(blob), frameEntry(blob, payload)} {
			if in == nil {
				continue
			}
			got, err := DecodeEntry(key, in)
			stored, want, refErr := readEntryKeyReference(in)
			accept := refErr == nil && stored == key
			if (err == nil) != accept || !bytes.Equal(got, want) && accept {
				t.Fatalf("DecodeEntry(%+v) = %q, %v; reference accepts %v (stored %+v, %v)", key, got, err, accept, stored, refErr)
			}
			if err != nil && got != nil {
				t.Fatalf("rejected entry returned payload %q", got)
			}
		}
	})
}
