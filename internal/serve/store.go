package serve

import "repro/internal/store"

// This file bridges the in-memory result cache to the persistent
// content-addressed store: entries written through on completion, the
// LRU primed from disk on boot (warm start), and LRU misses falling
// back to disk before any simulation runs. The store and the cache
// share the content key, so a byte stored is a byte served — the
// byte-identical guarantee survives a daemon restart.

// toStoreEntry converts a finished cache entry into its persisted
// form. Byte slices are shared, not copied: both sides treat entries
// as immutable after construction.
func toStoreEntry(e *Entry, meta string) *store.Entry {
	return &store.Entry{
		Key: e.Key, Meta: meta, Verified: e.Verified,
		Result: e.Result, Text: e.Text, Trace: e.Trace, Metrics: e.Metrics,
	}
}

// fromStoreEntry converts a persisted record back into the cache
// entry it came from.
func fromStoreEntry(e *store.Entry) *Entry {
	return &Entry{
		Key: e.Key, Verified: e.Verified,
		Result: e.Result, Text: e.Text, Trace: e.Trace, Metrics: e.Metrics,
	}
}

// primeCache warm-starts the LRU from the persistent store on boot:
// records load most-recently-used first (epoch descending) until
// either cache budget would overflow, so a restarted daemon answers
// its hot set from memory immediately.
func (s *Server) primeCache() {
	var loaded int64
	for _, ki := range s.store.Recent() {
		if s.opts.CacheEntries > 0 && s.warmed >= s.opts.CacheEntries {
			break
		}
		if s.opts.CacheBytes > 0 && loaded+ki.Bytes > s.opts.CacheBytes {
			break
		}
		e, ok, err := s.store.Get(ki.Key)
		if err != nil || !ok {
			continue
		}
		entry := fromStoreEntry(e)
		s.cache.Put(entry)
		loaded += size(entry)
		s.warmed++
	}
}

// storeLookup resolves an LRU miss from disk: the record is promoted
// back into the cache and touched to the current epoch so pruning
// sees it as live. The caller holds s.mu.
func (s *Server) storeLookup(key string) *Entry {
	if s.store == nil {
		return nil
	}
	e, ok, err := s.store.Get(key)
	if err != nil || !ok || len(e.Result) == 0 {
		return nil
	}
	entry := fromStoreEntry(e)
	s.cache.Put(entry)
	s.storeHits++
	s.store.Touch(key) //nolint:errcheck // advisory liveness marker
	return entry
}

// storeWrite persists a finished entry; failures are counted, not
// fatal (the in-memory result already answered the job).
func (s *Server) storeWrite(entry *Entry, spec *JobSpec) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(toStoreEntry(entry, spec.Meta())); err != nil {
		s.mu.Lock()
		s.storeErrors++
		s.mu.Unlock()
	}
}
