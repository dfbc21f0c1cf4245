package serve

import (
	"container/list"
	"sync"
)

// size is an entry's byte-budget footprint.
func size(e *Entry) int64 {
	return int64(len(e.Key) + len(e.Result) + len(e.Text) + len(e.Trace) + len(e.Metrics))
}

// CacheStats is the cache's observable state, part of /v1/stats.
type CacheStats struct {
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	MaxBytes   int64  `json:"max_bytes"`
	MaxEntries int    `json:"max_entries"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Rejected   uint64 `json:"rejected"`
}

// Cache is the content-addressed result cache: an LRU keyed by spec
// hash with both an entry-count and a byte budget. Deterministic
// simulations make it exact — a hit is the answer, not an
// approximation — so repeated sweeps from many clients cost one
// simulation each.
type Cache struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	ll         *list.List // front = most recently used; values are *Entry
	items      map[string]*list.Element
	bytes      int64
	hits       uint64
	misses     uint64
	evictions  uint64
	rejected   uint64
}

// NewCache builds a cache bounded by maxBytes and maxEntries; zero or
// negative values leave that bound unenforced.
func NewCache(maxBytes int64, maxEntries int) *Cache {
	return &Cache{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Get returns the entry at key, promoting it to most recently used;
// nil on miss. Hit/miss counters feed CacheStats.
func (c *Cache) Get(key string) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*Entry)
}

// Put stores the entry under its key, replacing any previous value,
// then evicts least-recently-used entries until both budgets hold. An
// entry that alone exceeds the byte budget is rejected rather than
// allowed to flush the whole cache.
func (c *Cache) Put(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && size(e) > c.maxBytes {
		c.rejected++
		return
	}
	if el, ok := c.items[e.Key]; ok {
		c.bytes += size(e) - size(el.Value.(*Entry))
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[e.Key] = c.ll.PushFront(e)
		c.bytes += size(e)
	}
	for (c.maxBytes > 0 && c.bytes > c.maxBytes) ||
		(c.maxEntries > 0 && c.ll.Len() > c.maxEntries) {
		back := c.ll.Back()
		if back == nil || back.Value.(*Entry).Key == e.Key {
			break
		}
		c.evict(back)
	}
}

// evict removes one element; the caller holds the lock.
func (c *Cache) evict(el *list.Element) {
	ev := el.Value.(*Entry)
	c.ll.Remove(el)
	delete(c.items, ev.Key)
	c.bytes -= size(ev)
	c.evictions++
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.ll.Len(),
		Bytes:      c.bytes,
		MaxBytes:   c.maxBytes,
		MaxEntries: c.maxEntries,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Rejected:   c.rejected,
	}
}
