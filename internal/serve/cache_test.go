package serve

import (
	"fmt"
	"testing"
)

func entry(key string, n int) *Entry {
	return &Entry{Key: key, Result: make([]byte, n), Verified: true}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(1<<20, 16)
	if c.Get("a") != nil {
		t.Fatal("hit on empty cache")
	}
	c.Put(entry("a", 100))
	if c.Get("a") == nil {
		t.Fatal("miss after Put")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheLRUEvictionByEntries(t *testing.T) {
	c := NewCache(0, 2)
	c.Put(entry("a", 10))
	c.Put(entry("b", 10))
	c.Get("a") // promote a; b is now LRU
	c.Put(entry("c", 10))
	if c.Get("b") != nil {
		t.Fatal("LRU entry b survived eviction")
	}
	if c.Get("a") == nil || c.Get("c") == nil {
		t.Fatal("wrong entry evicted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d", ev)
	}
}

func TestCacheByteBudget(t *testing.T) {
	c := NewCache(1000, 0)
	for i := range 5 {
		c.Put(entry(fmt.Sprintf("k%d", i), 300))
	}
	st := c.Stats()
	if st.Bytes > 1000 {
		t.Fatalf("cache over byte budget: %d", st.Bytes)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("expected a partially full cache with evictions: %+v", st)
	}
}

func TestCacheRejectsOversizeEntry(t *testing.T) {
	c := NewCache(100, 0)
	c.Put(entry("small", 50))
	c.Put(entry("huge", 500))
	if c.Get("huge") != nil {
		t.Fatal("oversize entry cached")
	}
	if c.Get("small") == nil {
		t.Fatal("oversize entry flushed the cache")
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d", st.Rejected)
	}
}

func TestCacheReplaceUpdatesBytes(t *testing.T) {
	c := NewCache(0, 0)
	c.Put(entry("a", 100))
	c.Put(entry("a", 300))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
	want := size(entry("a", 300))
	if st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestCacheReplaceShrinkReleasesBudget(t *testing.T) {
	c := NewCache(300, 0)
	c.Put(entry("a", 250))
	c.Put(entry("a", 10)) // shrink: budget headroom must come back
	if st := c.Stats(); st.Bytes != size(entry("a", 10)) {
		t.Fatalf("bytes after shrink = %d, want %d", st.Bytes, size(entry("a", 10)))
	}
	// The freed headroom is real: another entry now fits un-evicted.
	c.Put(entry("b", 250))
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("shrink did not release budget: %+v", st)
	}
	if want := size(entry("a", 10)) + size(entry("b", 250)); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestCacheReplaceGrowEvictsAcrossBudget(t *testing.T) {
	c := NewCache(300, 0)
	c.Put(entry("a", 100))
	c.Put(entry("b", 100))
	// Growing a's entry crosses the byte budget: the LRU (b) must go,
	// and the ledger must account the replacement exactly once.
	c.Put(entry("a", 250))
	st := c.Stats()
	if c.Get("b") != nil {
		t.Fatal("grow-replacement did not evict the LRU entry")
	}
	if e := c.Get("a"); e == nil || size(e) != size(entry("a", 250)) {
		t.Fatal("replacement lost the new value")
	}
	if st.Bytes != size(entry("a", 250)) || st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("ledger after grow-replacement: %+v", st)
	}
}

func TestCacheReplaceGrowNeverEvictsItself(t *testing.T) {
	c := NewCache(300, 0)
	c.Put(entry("a", 100))
	c.Put(entry("a", 290)) // still within budget alone; must survive
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 0 || st.Bytes != size(entry("a", 290)) {
		t.Fatalf("self-eviction guard: %+v", st)
	}
	if c.Get("a") == nil {
		t.Fatal("grown entry evicted itself")
	}
}

func TestCacheUnboundedBytesNeverRejects(t *testing.T) {
	for _, maxBytes := range []int64{0, -1} {
		c := NewCache(maxBytes, 0)
		c.Put(entry("huge", 1<<20))
		st := c.Stats()
		if st.Rejected != 0 || c.Get("huge") == nil {
			t.Fatalf("maxBytes=%d rejected an entry: %+v", maxBytes, st)
		}
	}
}

// TestCacheBytesLedgerInvariant drives a deterministic mix of
// inserts, replacements and evictions and checks the byte ledger
// against a recount of what actually survived.
func TestCacheBytesLedgerInvariant(t *testing.T) {
	c := NewCache(2000, 8)
	for i := range 200 {
		key := fmt.Sprintf("k%d", i%13)
		c.Put(entry(key, 37*(i%29)+1))
		if i%7 == 0 {
			c.Get(fmt.Sprintf("k%d", (i+3)%13))
		}
	}
	var want int64
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		want += size(el.Value.(*Entry))
	}
	got := c.bytes
	c.mu.Unlock()
	if got != want {
		t.Fatalf("byte ledger drifted: accounted %d, actual %d", got, want)
	}
	if st := c.Stats(); st.Bytes > 2000 || st.Entries > 8 {
		t.Fatalf("budgets violated: %+v", st)
	}
}
