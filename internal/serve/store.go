package serve

// This file bridges the in-memory result cache to the persistent
// content-addressed store: entries written through on completion, the
// LRU primed from disk on boot (warm start), and LRU misses falling
// back to disk before any simulation runs. A cache entry is the store's
// record (deep.Output is store.Entry) under the same content key, so a
// byte stored is a byte served — the byte-identical guarantee survives
// a daemon restart.

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
		s.cache.Put(e)
		loaded += size(e)
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
	s.cache.Put(e)
	s.storeHits++
	s.store.Touch(key) //nolint:errcheck // advisory liveness marker
	return e
}

// storeWrite persists a finished entry; failures are counted, not
// fatal (the in-memory result already answered the job).
func (s *Server) storeWrite(entry *Entry) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(entry); err != nil {
		s.mu.Lock()
		s.storeErrors++
		s.mu.Unlock()
	}
}
