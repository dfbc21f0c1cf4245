package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// lastSeg returns the path of the newest segment file.
func lastSeg(t *testing.T, dir string) string {
	t.Helper()
	names := globSegs(t, dir)
	if len(names) == 0 {
		t.Fatal("no segment files")
	}
	return names[len(names)-1]
}

// fill writes n sequential entries and closes the store.
func fill(t *testing.T, dir string, n int) map[string]*Entry {
	t.Helper()
	s := openT(t, dir, Options{NoSync: true})
	want := make(map[string]*Entry, n)
	for i := range n {
		e := &Entry{
			Key: fmt.Sprintf("k%02d", i), Meta: "E01",
			Result: bytes.Repeat([]byte{byte(i + 1)}, 50), Text: []byte("t"), Verified: true,
		}
		mustPut(t, s, e)
		want[e.Key] = e
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTruncatedTailIsRepaired simulates a crash mid-append: the last
// record is torn. Open must drop exactly that record, truncate the
// file back to the last good one, and keep appending from there.
func TestTruncatedTailIsRepaired(t *testing.T) {
	dir := t.TempDir()
	want := fill(t, dir, 8)
	path := lastSeg(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s := openT(t, dir, Options{})
	st := s.Stats()
	if st.Entries != 7 {
		t.Fatalf("entries after torn tail = %d, want 7", st.Entries)
	}
	if has(s, "k07") {
		t.Fatal("torn record still indexed")
	}
	for i := range 7 {
		key := fmt.Sprintf("k%02d", i)
		if !sameEntry(want[key], mustGet(t, s, key)) {
			t.Fatalf("intact entry %s damaged by repair", key)
		}
	}
	// The file must have been truncated to the last good record, and
	// appends must land cleanly after it.
	if fi, err = os.Stat(path); err != nil || fi.Size() != st.DiskBytes {
		t.Fatalf("tail not repaired: file %d bytes, log %d", fi.Size(), st.DiskBytes)
	}
	mustPut(t, s, &Entry{Key: "k07", Meta: "E01", Result: []byte("rewritten")})
	s.Close()

	s = openT(t, dir, Options{})
	defer s.Close()
	if e := mustGet(t, s, "k07"); string(e.Result) != "rewritten" {
		t.Fatalf("append after repair lost: %q", e.Result)
	}
}

// TestCorruptCRCMidSegmentIsSkipped flips bytes inside an interior
// record: open must keep everything before the corruption, drop the
// rest of that segment, and not fail.
func TestCorruptCRCMidSegmentIsSkipped(t *testing.T) {
	dir := t.TempDir()
	fill(t, dir, 8)
	path := lastSeg(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte roughly in the middle of the log: some interior
	// record's body fails its CRC.
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openT(t, dir, Options{})
	defer s.Close()
	st := s.Stats()
	if st.Entries == 0 || st.Entries >= 8 {
		t.Fatalf("corruption handling kept %d entries, want a proper prefix", st.Entries)
	}
	// The surviving prefix must read back clean.
	for i := range st.Entries {
		key := fmt.Sprintf("k%02d", i)
		e := mustGet(t, s, key)
		if !bytes.Equal(e.Result, bytes.Repeat([]byte{byte(i + 1)}, 50)) {
			t.Fatalf("surviving entry %s corrupted", key)
		}
	}
	// And the store must still accept writes.
	if err := s.Put(&Entry{Key: "fresh", Result: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	if e := mustGet(t, s, "fresh"); string(e.Result) != "ok" {
		t.Fatal("write after corruption recovery failed")
	}
}

// TestCorruptionInSealedSegment only loses that segment's tail; later
// segments keep their records.
func TestCorruptionInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 300, NoSync: true})
	for i := range 12 {
		mustPut(t, s, &Entry{Key: fmt.Sprintf("k%02d", i), Result: bytes.Repeat([]byte{byte(i + 1)}, 80)})
	}
	if s.Stats().Segments < 3 {
		t.Fatalf("want >=3 segments, got %d", s.Stats().Segments)
	}
	s.Close()

	first := globSegs(t, dir)[0]
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-20] ^= 0xff // corrupt the first segment's tail record
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s = openT(t, dir, Options{})
	defer s.Close()
	// The newest entries live in later segments and must all survive.
	if !has(s, "k11") || !has(s, "k10") {
		t.Fatal("later segments lost to an earlier segment's corruption")
	}
	if e := mustGet(t, s, "k11"); !bytes.Equal(e.Result, bytes.Repeat([]byte{12}, 80)) {
		t.Fatal("entry in later segment corrupted")
	}
	if st := s.Stats(); st.Entries >= 12 || st.Entries == 0 {
		t.Fatalf("entries = %d, want a partial index", st.Entries)
	}
}

// TestGarbageFileIsNotFatal: a segment of pure garbage indexes
// nothing but does not fail the open.
func TestGarbageFileIsNotFatal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/"+segName(1), bytes.Repeat([]byte{0xaa}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("garbage produced %d entries", st.Entries)
	}
	mustPut(t, s, &Entry{Key: "k", Result: []byte("v")})
	if e := mustGet(t, s, "k"); string(e.Result) != "v" {
		t.Fatal("store unusable after garbage segment")
	}
}

// tornHeader is an 8-byte segment whose length prefix claims a record
// just under maxRecordBytes: a header written before a crash, its
// body never.
func tornHeader() []byte {
	var h [recHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], maxRecordBytes-1)
	return h[:]
}

// TestHugeLengthPrefixIsTornTail: a length prefix larger than the
// bytes left in the segment is a torn tail. Open must repair it
// without allocating the claimed size first.
func TestHugeLengthPrefixIsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/" + segName(1)
	if err := os.WriteFile(path, tornHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := openT(t, dir, Options{})
	runtime.ReadMemStats(&after)
	defer s.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("Open allocated %d MiB for an 8-byte segment", alloc>>20)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("torn header produced %d entries", st.Entries)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("torn header not truncated away: file is %d bytes", fi.Size())
	}
}
