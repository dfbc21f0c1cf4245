package deep_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/deep"
	"repro/internal/store"
)

// countingStore is an on-disk store that counts the Runner's lookups
// and writes.
type countingStore struct {
	*store.Store
	mu      sync.Mutex
	lookups int
	writes  int
}

func (c *countingStore) Get(key string) (*deep.Output, bool, error) {
	c.mu.Lock()
	c.lookups++
	c.mu.Unlock()
	return c.Store.Get(key)
}

func (c *countingStore) Put(e *deep.Output) error {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.Store.Put(e)
}

// openRunStore opens an on-disk store in a temp dir and returns it with
// a counting view over it.
func openRunStore(t *testing.T) (*store.Store, *countingStore) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, &countingStore{Store: st}
}

// TestResumedSweepSkipsStoredPoints is the resume acceptance test: a
// first sweep persists its points; a second, wider sweep over the
// same store simulates ONLY the missing points, and the store hits
// re-render byte-identically to the golden file.
func TestResumedSweepSkipsStoredPoints(t *testing.T) {
	st, cs := openRunStore(t)

	first, err := (&deep.Runner{Store: cs}).Run(context.Background(), "E01", "E04")
	if err != nil {
		t.Fatal(err)
	}
	if first.StoreHits != 0 || first.StoreErrors != 0 || cs.writes != 2 {
		t.Fatalf("fresh sweep: hits=%d errs=%d writes=%d", first.StoreHits, first.StoreErrors, cs.writes)
	}
	for _, res := range first.Results {
		if res.FromStore {
			t.Fatalf("%s marked FromStore on a fresh sweep", res.ID)
		}
	}
	if got := len(st.Query("E01")); got != 1 {
		t.Fatalf("store has %d E01 entries", got)
	}

	// "Kill" the sweep and resume it with one more point: only E12
	// may simulate.
	resumed, err := (&deep.Runner{Store: cs}).Run(context.Background(), "E01", "E04", "E12")
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StoreHits != 2 {
		t.Fatalf("resumed sweep skipped %d points, want 2", resumed.StoreHits)
	}
	if cs.writes != 3 {
		t.Fatalf("resumed sweep wrote %d entries, want 3 (only the missing point)", cs.writes)
	}
	byID := map[string]deep.RunResult{}
	for _, res := range resumed.Results {
		byID[res.ID] = res
	}
	if !byID["E01"].FromStore || !byID["E04"].FromStore || byID["E12"].FromStore {
		t.Fatalf("FromStore flags wrong: %+v", byID)
	}

	// Byte-identity: the store-hit table renders exactly the golden
	// bytes a fresh computation produces.
	golden, err := os.ReadFile(filepath.Join("testdata", "E01.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := byID["E01"].Table.Render(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), golden) {
		t.Fatalf("store hit drifted from golden:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), golden)
	}
}

// TestStoreSurvivesProcessRestart closes and reopens the on-disk
// store between sweeps — the cross-process resume path.
func TestStoreSurvivesProcessRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&deep.Runner{Store: st}).Run(context.Background(), "E01"); err != nil {
		t.Fatal(err)
	}
	fresh, err := (&deep.Runner{}).Run(context.Background(), "E01")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep, err := (&deep.Runner{Store: st}).Run(context.Background(), "E01")
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreHits != 1 || !rep.Results[0].FromStore {
		t.Fatalf("restarted store missed: hits=%d", rep.StoreHits)
	}
	var fromStore, simulated bytes.Buffer
	if err := (deep.TableSink{}).Write(&fromStore, rep); err != nil {
		t.Fatal(err)
	}
	if err := (deep.TableSink{}).Write(&simulated, fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromStore.Bytes(), simulated.Bytes()) {
		t.Fatal("store hit after restart is not byte-identical to fresh computation")
	}
}

// TestStoreKeySeparation: different run knobs must not collide on the
// same stored point.
func TestStoreKeySeparation(t *testing.T) {
	_, cs := openRunStore(t)
	if _, err := (&deep.Runner{Store: cs}).Run(context.Background(), "E01"); err != nil {
		t.Fatal(err)
	}
	// A different seed is a different point: no hit, a second write.
	rep, err := (&deep.Runner{Store: cs, Seed: 7}).Run(context.Background(), "E01")
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreHits != 0 || cs.writes != 2 {
		t.Fatalf("seed=7 reused the default-seed point: hits=%d writes=%d", rep.StoreHits, cs.writes)
	}
	// Spelled-out defaults are the same point: hit, no third write.
	rep, err = (&deep.Runner{Store: cs, Scale: 1}).Run(context.Background(), "E01")
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreHits != 1 || cs.writes != 2 {
		t.Fatalf("canonicalisation broken: hits=%d writes=%d", rep.StoreHits, cs.writes)
	}
}

// TestTracedRunsBypassStore: tracing/metrics runs neither read nor
// write the store (their artifacts cannot be replayed from it).
func TestTracedRunsBypassStore(t *testing.T) {
	_, cs := openRunStore(t)
	if _, err := (&deep.Runner{Store: cs}).Run(context.Background(), "E13"); err != nil {
		t.Fatal(err)
	}
	rep, err := (&deep.Runner{Store: cs, Tracing: true}).Run(context.Background(), "E13")
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreHits != 0 || cs.lookups != 1 || cs.writes != 1 {
		t.Fatalf("traced run used the store: hits=%d lookups=%d writes=%d", rep.StoreHits, cs.lookups, cs.writes)
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("traced run lost its trace: %v (%d bytes)", err, buf.Len())
	}
}

// TestCorruptStoredPayloadFallsBack: an undecodable stored payload is
// a miss, and the point is re-simulated (and re-stored) fresh.
func TestCorruptStoredPayloadFallsBack(t *testing.T) {
	st, cs := openRunStore(t)
	if _, err := (&deep.Runner{Store: cs}).Run(context.Background(), "E01"); err != nil {
		t.Fatal(err)
	}
	// Clobber the stored payload under the same key.
	infos := st.Query("E01")
	if len(infos) != 1 {
		t.Fatalf("store has %d E01 entries", len(infos))
	}
	if err := st.Put(&store.Entry{Key: infos[0].Key, Meta: "E01", Result: []byte("not json")}); err != nil {
		t.Fatal(err)
	}
	rep, err := (&deep.Runner{Store: cs}).Run(context.Background(), "E01")
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreHits != 0 || rep.Results[0].FromStore {
		t.Fatal("corrupt payload served as a store hit")
	}
	if cs.writes != 2 {
		t.Fatalf("fresh result not re-stored after fallback: writes=%d", cs.writes)
	}
}
