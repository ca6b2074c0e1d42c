package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// FuzzReadEntryKey checks the entry codec on arbitrary bytes: reading
// never panics; whatever ReadEntryKey accepts, DecodeEntry accepts under
// the recorded key with the same payload; and re-encoding that key and
// payload reads back unchanged. The seed corpus in
// testdata/fuzz/FuzzReadEntryKey holds a valid entry, a truncated one,
// both oversized-length headers, a wrong magic, a wrong version and a bad
// checksum.
func FuzzReadEntryKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, in := range [][]byte{blob, reseal(blob)} {
			if in == nil {
				continue
			}
			key, pay, err := ReadEntryKey(in)
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
