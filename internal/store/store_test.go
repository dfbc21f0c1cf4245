package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// openT opens a store in dir, failing the test on error.
func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

// mustPut stores an entry, failing the test on error.
func mustPut(t *testing.T, s *Store, e *Entry) {
	t.Helper()
	if err := s.Put(e); err != nil {
		t.Fatalf("put %s: %v", e.Key, err)
	}
}

// mustGet fetches a live entry.
func mustGet(t *testing.T, s *Store, key string) *Entry {
	t.Helper()
	e, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	if !ok {
		t.Fatalf("get %s: miss", key)
	}
	return e
}

// sameEntry compares every stored field byte for byte.
func sameEntry(a, b *Entry) bool {
	return a.Key == b.Key && a.Meta == b.Meta && a.Verified == b.Verified &&
		bytes.Equal(a.Result, b.Result) && bytes.Equal(a.Text, b.Text) &&
		bytes.Equal(a.Trace, b.Trace) && bytes.Equal(a.Metrics, b.Metrics)
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	defer s.Close()
	in := &Entry{
		Key: "k1", Meta: "E01", Verified: true,
		Result: []byte(`{"kind":"experiment"}`), Text: []byte("table\n"),
		Trace: []byte("[{}]"), Metrics: []byte("run,metric\n"),
	}
	mustPut(t, s, in)
	if !sameEntry(in, mustGet(t, s, "k1")) {
		t.Fatal("round trip altered the entry")
	}
	if _, ok, err := s.Get("absent"); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	if !has(s, "k1") || has(s, "absent") {
		t.Fatal("Has disagrees with Get")
	}
}

func TestReopenKeepsLatestWrite(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, &Entry{Key: "k", Meta: "E01", Result: []byte("v1")})
	mustPut(t, s, &Entry{Key: "k", Meta: "E01", Result: []byte("v2"), Verified: true})
	mustPut(t, s, &Entry{Key: "other", Meta: "E04", Result: []byte("x")})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openT(t, dir, Options{})
	defer s.Close()
	e := mustGet(t, s, "k")
	if string(e.Result) != "v2" || !e.Verified {
		t.Fatalf("reopen returned %q (verified=%v), want v2", e.Result, e.Verified)
	}
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("entries after reopen = %d", st.Entries)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 256, NoSync: true})
	for i := range 20 {
		mustPut(t, s, &Entry{Key: fmt.Sprintf("k%02d", i), Result: bytes.Repeat([]byte{byte(i)}, 64)})
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("no rotation: %+v", st)
	}
	for i := range 20 {
		key := fmt.Sprintf("k%02d", i)
		if e := mustGet(t, s, key); !bytes.Equal(e.Result, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("entry %s corrupted across rotation", key)
		}
	}
	s.Close()

	// Every segment must survive a reopen.
	s = openT(t, dir, Options{})
	defer s.Close()
	if got := s.Stats(); got.Entries != 20 || got.Segments != st.Segments {
		t.Fatalf("after reopen: %+v, want %d segments", got, st.Segments)
	}
}

// has reports whether key is live.
func has(s *Store, key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// tombstone deletes key the way Prune does, with a tombstone record;
// a no-op for unknown keys.
func tombstone(s *Store, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; !ok {
		return nil
	}
	if _, _, err := s.append(encodeRecord(recDelete, s.epoch, key, nil)); err != nil {
		return err
	}
	delete(s.index, key)
	return nil
}

func TestDeleteTombstonesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, &Entry{Key: "gone", Result: []byte("x")})
	mustPut(t, s, &Entry{Key: "kept", Result: []byte("y")})
	if err := tombstone(s, "gone"); err != nil {
		t.Fatal(err)
	}
	if has(s, "gone") {
		t.Fatal("deleted key still live")
	}
	s.Close()

	s = openT(t, dir, Options{})
	defer s.Close()
	if has(s, "gone") || !has(s, "kept") {
		t.Fatal("tombstone did not survive reopen")
	}
}

func TestEpochPruneAndTouch(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, &Entry{Key: "old", Meta: "E01", Result: []byte("a")})
	mustPut(t, s, &Entry{Key: "warm", Meta: "E04", Result: []byte("b")})
	if _, err := s.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, &Entry{Key: "new", Meta: "E12", Result: []byte("c")})
	if err := s.Touch("warm"); err != nil {
		t.Fatal(err)
	}
	if ep := s.Epoch(); ep != 2 {
		t.Fatalf("epoch = %d", ep)
	}

	// Prune everything older than the current epoch: only "old" (still
	// at epoch 1, never touched) goes.
	n, err := s.Prune(s.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || has(s, "old") || !has(s, "warm") || !has(s, "new") {
		t.Fatalf("prune removed %d (old=%v warm=%v new=%v)", n, has(s, "old"), has(s, "warm"), has(s, "new"))
	}
	s.Close()

	// Epoch counter, tombstone and the touched epoch survive reopen.
	s = openT(t, dir, Options{})
	defer s.Close()
	if s.Epoch() != 2 || has(s, "old") {
		t.Fatalf("after reopen: epoch=%d old=%v", s.Epoch(), has(s, "old"))
	}
	if n, _ := s.Prune(s.Epoch()); n != 0 {
		t.Fatalf("reopened prune removed %d entries", n)
	}
}

func TestCompactReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 512, NoSync: true})
	// Overwrite the same keys repeatedly: most of the log is dead.
	for round := range 10 {
		for k := range 4 {
			mustPut(t, s, &Entry{
				Key: fmt.Sprintf("k%d", k), Meta: "E16",
				Result: bytes.Repeat([]byte{byte(round)}, 100),
			})
		}
	}
	before := s.Stats()
	if before.LiveRatio > 0.5 {
		t.Fatalf("overwrites did not create dead bytes: %+v", before)
	}
	want := make(map[string]*Entry)
	for k := range 4 {
		want[fmt.Sprintf("k%d", k)] = mustGet(t, s, fmt.Sprintf("k%d", k))
	}

	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if reclaimed <= 0 || after.DiskBytes >= before.DiskBytes {
		t.Fatalf("compaction reclaimed %d (disk %d -> %d)", reclaimed, before.DiskBytes, after.DiskBytes)
	}
	if after.LiveRatio < 0.9 {
		t.Fatalf("live ratio after compaction: %+v", after)
	}
	for key, e := range want {
		if !sameEntry(e, mustGet(t, s, key)) {
			t.Fatalf("compaction altered %s", key)
		}
	}
	s.Close()

	// The compacted log must reopen to the same contents.
	s = openT(t, dir, Options{})
	defer s.Close()
	for key, e := range want {
		if !sameEntry(e, mustGet(t, s, key)) {
			t.Fatalf("compacted entry %s drifted across reopen", key)
		}
	}
	if got := len(globSegs(t, dir)); got != s.Stats().Segments {
		t.Fatalf("segment files %d != stats %d", got, s.Stats().Segments)
	}
}

// globSegs lists segment files on disk.
func globSegs(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestCompactPreservesEpochs(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	defer s.Close()
	mustPut(t, s, &Entry{Key: "old", Result: []byte("a")})
	if _, err := s.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, &Entry{Key: "new", Result: []byte("b")})
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// "old" must still look epoch-1 stale after compaction.
	if n, _ := s.Prune(s.Epoch()); n != 1 || has(s, "old") || !has(s, "new") {
		t.Fatalf("compaction lost the pruning epochs (pruned %d)", n)
	}
}

func TestQueryAndRecent(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	defer s.Close()
	mustPut(t, s, &Entry{Key: "b", Meta: "E16", Result: []byte("1")})
	mustPut(t, s, &Entry{Key: "a", Meta: "E16", Result: []byte("2")})
	if _, err := s.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, &Entry{Key: "c", Meta: "E01", Result: []byte("3")})

	q := s.Query("E16")
	if len(q) != 2 || q[0].Key != "a" || q[1].Key != "b" {
		t.Fatalf("query E16: %+v", q)
	}
	if q := s.Query("E99"); len(q) != 0 {
		t.Fatalf("query E99: %+v", q)
	}
	r := s.Recent()
	if len(r) != 3 || r[0].Key != "c" || r[0].Epoch != 2 {
		t.Fatalf("recent: %+v", r)
	}
}

// TestRandomRoundTripAcrossReopen is the property test: N random
// entries put (with overwrites), closed, reopened, and every live key
// read back byte-identical.
func TestRandomRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	blob := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	s := openT(t, dir, Options{SegmentBytes: 4096, NoSync: true})
	want := make(map[string]*Entry)
	for i := range 300 {
		e := &Entry{
			Key:      fmt.Sprintf("key-%03d", rng.Intn(80)), // overwrites guaranteed
			Meta:     fmt.Sprintf("E%02d", rng.Intn(4)),
			Verified: rng.Intn(2) == 0,
			Result:   blob(rng.Intn(200)),
			Text:     blob(rng.Intn(100)),
		}
		if rng.Intn(3) == 0 {
			e.Trace = blob(rng.Intn(150))
		}
		if rng.Intn(4) == 0 {
			e.Metrics = blob(rng.Intn(150))
		}
		mustPut(t, s, e)
		want[e.Key] = e
		if i%37 == 0 { // sprinkle deletes
			victim := fmt.Sprintf("key-%03d", rng.Intn(80))
			if err := tombstone(s, victim); err != nil {
				t.Fatal(err)
			}
			delete(want, victim)
		}
	}
	s.Close()

	s = openT(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Entries != len(want) {
		t.Fatalf("reopened with %d entries, want %d", st.Entries, len(want))
	}
	for key, e := range want {
		if !sameEntry(e, mustGet(t, s, key)) {
			t.Fatalf("entry %s drifted across close/open", key)
		}
	}
}

func TestPutRejectsEmptyKey(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Put(&Entry{Result: []byte("x")}); err == nil {
		t.Fatal("empty key accepted")
	}
}
