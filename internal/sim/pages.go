package sim

import "sync"

// PageLen is the number of records in a page of a Pages store.
const PageLen = 512

// Pages stores pointer-free records by int32 index in fixed-size pages
// that never move, so growth copies nothing. The pages come from a pool
// the caller owns and go back to it on Trim, so a store that empties
// and a new one that grows share one set: a sweep that builds a fresh
// machine per point runs on the last point's pages, not on new ones.
type Pages[T any] struct{ p []*[PageLen]T }

// At returns record i, which Reach must have made room for.
func (s *Pages[T]) At(i int32) *T { return &s.p[uint32(i)/PageLen][uint32(i)%PageLen] }

// Len is the number of records the store has room for.
func (s *Pages[T]) Len() int { return len(s.p) * PageLen }

// Reach takes pages from pool until the store has room for record i.
func (s *Pages[T]) Reach(i int32, pool *sync.Pool) {
	for int(i) >= s.Len() {
		s.p = append(s.p, pool.Get().(*[PageLen]T))
	}
}

// Trim hands every page but the first back to pool. No record on them
// may be in use, or look in use to whoever takes the page next.
func (s *Pages[T]) Trim(pool *sync.Pool) {
	for k := 1; k < len(s.p); k++ {
		pool.Put(s.p[k])
		s.p[k] = nil
	}
	s.p = s.p[:min(1, len(s.p))]
}
