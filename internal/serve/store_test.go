package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/deep"
	"repro/internal/store"
)

// openStore opens a persistent store at dir, closing it at test end.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) //nolint:errcheck // may already be closed
	return st
}

// TestStoreWarmStartRestart is the restart acceptance walk: run E01
// against a persistent store, tear the daemon down, boot a fresh one
// over the same directory, and get the byte-identical result as an
// immediate cache hit — without the executor ever running again.
func TestStoreWarmStartRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	st1 := openStore(t, dir)
	h1 := newHarness(t, Options{Workers: 1, Store: st1})

	sub := h1.submit(`{"experiment": "E01"}`)
	if done := h1.wait(sub.ID); done.State != StateDone {
		t.Fatalf("first run finished %s", done.State)
	}
	_, freshText := h1.get("/v1/jobs/" + sub.ID + "/text")
	stats := h1.stats()
	if stats.Store == nil || stats.Store.Entries != 1 {
		t.Fatalf("store stats after write-through: %+v", stats.Store)
	}
	// "Kill" the daemon: drain and release the store directory.
	h1.srv.Drain(5 * time.Second)
	h1.ts.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot over the same directory. The epoch advance mirrors what
	// deepd does on boot; the executor is booby-trapped because a warm
	// start must answer from disk, not by simulating.
	st2 := openStore(t, dir)
	if _, err := st2.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	h2 := newHarness(t, Options{Workers: 1, Store: st2})
	h2.srv.exec = func(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error) {
		t.Error("executor ran despite a warm-started store")
		return nil, ctx.Err()
	}
	if st := h2.stats(); st.StoreWarmed != 1 || st.Cache.Entries != 1 {
		t.Fatalf("warm start primed %d entries (cache %d), want 1", st.StoreWarmed, st.Cache.Entries)
	}

	resub := h2.submit(`{"experiment": "E01", "scale": 1}`)
	if resub.Key != sub.Key {
		t.Fatalf("content key changed across restart: %s != %s", resub.Key, sub.Key)
	}
	if resub.State != StateDone || !resub.CacheHit {
		t.Fatalf("restarted daemon did not answer from the warm cache: %+v", resub)
	}
	_, text := h2.get("/v1/jobs/" + resub.ID + "/text")
	if !bytes.Equal(text, freshText) {
		t.Fatal("warm-start text drifted from the fresh computation")
	}
	golden, err := os.ReadFile("../../deep/testdata/E01.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text, golden) {
		t.Fatalf("warm-start text drifted from E01.golden:\n%s", text)
	}
	// The record is queryable by experiment and alive in the new epoch
	// (the warm-start touch refreshed it past the boot-time advance).
	infos := st2.Query("E01")
	if len(infos) != 1 || !infos[0].Verified {
		t.Fatalf("store query E01: %+v", infos)
	}
	if infos[0].Epoch != st2.Epoch() {
		t.Fatalf("warm-started record stuck at epoch %d (current %d)", infos[0].Epoch, st2.Epoch())
	}
}

// TestStoreFallbackOnLRUMiss: an entry evicted from the in-memory LRU
// is still answered from disk, without re-executing.
func TestStoreFallbackOnLRUMiss(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "results"))
	h := newHarness(t, Options{Workers: 1, CacheEntries: 1, Store: st})
	var execs atomic.Int32
	inner := h.srv.exec
	h.srv.exec = func(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error) {
		execs.Add(1)
		return inner(ctx, spec, progress)
	}

	first := h.submit(`{"experiment": "E01"}`)
	h.wait(first.ID)
	_, freshResult := h.get("/v1/jobs/" + first.ID + "/result")
	h.wait(h.submit(`{"experiment": "E04"}`).ID) // evicts E01 from the 1-entry LRU
	if got := h.stats().Cache.Entries; got != 1 {
		t.Fatalf("LRU holds %d entries, want 1", got)
	}

	resub := h.submit(`{"experiment": "E01"}`)
	if resub.State != StateDone || !resub.CacheHit {
		t.Fatalf("evicted entry not served from the store: %+v", resub)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("store fallback re-executed: %d execs, want 2", n)
	}
	if st := h.stats(); st.StoreHits != 1 {
		t.Fatalf("stats count %d store hits, want 1", st.StoreHits)
	}
	_, result := h.get("/v1/jobs/" + resub.ID + "/result")
	if !bytes.Equal(result, freshResult) {
		t.Fatal("store-served result is not byte-identical to the fresh one")
	}
}

// TestStoreWorkloadMetaAndArtifacts: workload jobs persist under a
// queryable workload tag, and trace attachments replay from disk.
func TestStoreWorkloadMetaAndArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	st1 := openStore(t, dir)
	h1 := newHarness(t, Options{Workers: 1, Store: st1})
	h1.wait(h1.submit(`{"workload": {"kind": "spmv"}}`).ID)
	traced := h1.submit(`{"experiment": "E13", "trace": true}`)
	h1.wait(traced.ID)
	_, freshTrace := h1.get("/v1/jobs/" + traced.ID + "/trace")
	h1.srv.Drain(5 * time.Second)
	h1.ts.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	h2 := newHarness(t, Options{Workers: 1, Store: st2})
	if got := st2.Query("workload:spmv"); len(got) != 1 {
		t.Fatalf("workload query: %+v", got)
	}
	resub := h2.submit(`{"experiment": "E13", "trace": true}`)
	if resub.State != StateDone || !resub.CacheHit {
		t.Fatalf("traced job not warm-started: %+v", resub)
	}
	if _, trace := h2.get("/v1/jobs/" + resub.ID + "/trace"); !bytes.Equal(trace, freshTrace) {
		t.Fatal("trace attachment did not survive the restart byte-identically")
	}
}

// TestStoreSharedWithRunner: a resumable sweep's point and a deepd job
// are one record. E01 written by a deep.Runner is answered as a store
// hit, byte-identical to a fresh Spec.Run, and a job the daemon
// computed is a point a Runner sweep resumes.
func TestStoreSharedWithRunner(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "results"))
	h := newHarness(t, Options{Workers: 1, Store: st})
	inner := h.srv.exec
	h.srv.exec = func(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error) {
		if spec.Experiment == "E01" {
			t.Error("executor ran E01 despite the Runner's stored record")
		}
		return inner(ctx, spec, progress)
	}

	if _, err := (&deep.Runner{Store: st}).Run(context.Background(), "E01"); err != nil {
		t.Fatal(err)
	}
	sub := h.submit(`{"experiment": "E01"}`)
	if sub.State != StateDone || !sub.CacheHit || h.stats().StoreHits != 1 {
		t.Fatalf("the Runner's E01 record was not a store hit: %+v", sub)
	}
	spec := &JobSpec{Experiment: "E01"}
	if _, err := normalize(spec); err != nil {
		t.Fatal(err)
	}
	fresh, err := spec.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, result := h.get("/v1/jobs/" + sub.ID + "/result"); !bytes.Equal(result, fresh.Result) {
		t.Fatalf("stored result differs from a fresh run:\n%s\n%s", result, fresh.Result)
	}
	if _, text := h.get("/v1/jobs/" + sub.ID + "/text"); !bytes.Equal(text, fresh.Text) {
		t.Fatalf("stored text differs from a fresh run:\n%s", text)
	}

	computed := h.submit(`{"experiment": "E04"}`)
	h.wait(computed.ID)
	rep, err := (&deep.Runner{Store: st}).Run(context.Background(), "E04")
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreHits != 1 || !rep.Results[0].FromStore {
		t.Fatalf("the daemon's E04 record did not resume the sweep: %d store hits", rep.StoreHits)
	}
	var resumed bytes.Buffer
	if err := (deep.TableSink{}).Write(&resumed, rep); err != nil {
		t.Fatal(err)
	}
	if _, text := h.get("/v1/jobs/" + computed.ID + "/text"); !bytes.Equal(resumed.Bytes(), text) {
		t.Fatalf("resumed table differs from the daemon's text:\n%s", resumed.Bytes())
	}
}
