package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentDecode opens a store whose only segment is arbitrary
// bytes, the one place untrusted bytes reach the store's decoder. Open
// must not fail, every indexed key must read back CRC-clean, the
// torn-tail repair must be idempotent, and the repaired store must take
// a write that survives a reopen.
func FuzzSegmentDecode(f *testing.F) {
	var valid []byte
	for _, rec := range [][]byte{
		encodeRecord(recPut, 1, "k1", &Entry{Meta: "E01", Verified: true, Result: []byte(`{}`), Text: []byte("t\n")}),
		encodeRecord(recPut, 1, "k2", &Entry{Meta: "workload:spmv", Trace: []byte("[]")}),
		encodeRecord(recEpoch, 2, "", nil),
		encodeRecord(recTouch, 2, "k1", nil),
		encodeRecord(recDelete, 2, "k2", nil),
	} {
		valid = append(valid, rec...)
	}
	f.Add(valid)
	f.Add(tornHeader())
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{NoSync: true}
		s := openT(t, dir, opts)
		for _, ki := range s.Recent() {
			mustGet(t, s, ki.Key)
		}
		first := s.Stats()
		s.Close()

		s = openT(t, dir, opts)
		if again := s.Stats(); again != first {
			t.Fatalf("repair not idempotent: %+v then %+v", first, again)
		}
		put := &Entry{Key: "fuzz-put", Meta: "E01", Result: []byte("after repair")}
		mustPut(t, s, put)
		s.Close()

		s = openT(t, dir, opts)
		defer s.Close()
		if !sameEntry(put, mustGet(t, s, put.Key)) {
			t.Fatal("write after repair altered on reopen")
		}
	})
}
