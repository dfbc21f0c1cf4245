// Package store is the embedded, persistent result store of the
// reproduction: an append-only log of content-addressed simulation
// results with an in-memory index rebuilt on open.
//
// The design follows the bounded-on-disk-history idiom of embedded
// chain stores (segmented log + pruner + offline compaction):
//
//   - Records append to numbered segment files; nothing is ever
//     rewritten in place. Every record carries a CRC-32C, so torn or
//     corrupted tails are detected on open and repaired (truncated)
//     or skipped instead of poisoning the index.
//   - The index (key -> newest record) is rebuilt by a forward scan
//     on open; later records win, tombstones delete.
//   - Every record carries the store's epoch. AdvanceEpoch marks a
//     generation boundary (deepd advances once per boot); Touch
//     refreshes a key's epoch on access, so Prune can tombstone
//     configs that no generation has asked for recently.
//   - Compact rewrites live records into fresh segments and removes
//     the old files, reclaiming the dead bytes that overwrites,
//     tombstones and pruning left behind. The live ratio in Stats
//     says when that is worth doing.
//
// The store is safe for concurrent use by one process. It has no
// third-party dependencies.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Entry is one stored result: the payload fields deepd's cache serves
// plus a producer tag for query-by-experiment. Get returns the stored
// bytes verbatim, so a store hit is byte-identical to the computation
// that produced it.
type Entry struct {
	// Key is the content address the entry lives under.
	Key string
	// Meta tags the producer (an experiment id like "E16", or
	// "workload:spmv") and is indexed for Query.
	Meta string
	// Verified is false when a checked workload failed verification.
	Verified bool
	// Result is the structured JSON payload; Text the rendered text
	// form; Trace and Metrics the optional attachments.
	Result, Text, Trace, Metrics []byte
}

// payloadBytes is the entry's payload footprint.
func (e *Entry) payloadBytes() int64 {
	return int64(len(e.Result) + len(e.Text) + len(e.Trace) + len(e.Metrics))
}

// Options tunes a Store. The zero value is ready to use.
type Options struct {
	// SegmentBytes caps one segment file; the log rotates past it
	// (default 8 MiB).
	SegmentBytes int64
	// NoSync skips the fsync after each append. Faster, but a crash
	// can lose the tail records (the CRC scan repairs the file).
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// ref locates a key's newest record and mirrors the index-relevant
// header fields so stats and queries need no disk reads.
type ref struct {
	seg      *segment
	off      int64
	size     int64 // full record size, header included
	epoch    uint64
	meta     string
	verified bool
	payload  int64
}

// segment is one log file.
type segment struct {
	seq  int
	path string
	f    *os.File
	size int64 // bytes of valid records
}

// Stats is the store's observable state.
type Stats struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// Segments is the number of log files.
	Segments int `json:"segments"`
	// Entries is the number of live keys.
	Entries int `json:"entries"`
	// LiveBytes is the on-disk footprint of the newest record of every
	// live key; DiskBytes the total log footprint. Their ratio
	// (LiveRatio) is the compaction signal: low ratio, stale log.
	LiveBytes int64   `json:"live_bytes"`
	DiskBytes int64   `json:"disk_bytes"`
	LiveRatio float64 `json:"live_ratio"`
	// Epoch is the current pruning epoch.
	Epoch uint64 `json:"epoch"`
}

// KeyInfo is one index row, as Recent and Query report it.
type KeyInfo struct {
	Key      string `json:"key"`
	Meta     string `json:"meta,omitempty"`
	Epoch    uint64 `json:"epoch"`
	Bytes    int64  `json:"bytes"`
	Verified bool   `json:"verified"`
}

// Store is the embedded append-only result store.
type Store struct {
	mu    sync.RWMutex
	dir   string
	opts  Options
	segs  []*segment
	index map[string]ref
	epoch uint64
}

// segName renders the file name of segment seq.
func segName(seq int) string { return fmt.Sprintf("seg-%08d.log", seq) }

// Open opens (creating if needed) the store at dir, scanning every
// segment to rebuild the index. Torn tail records are truncated away;
// a mid-segment CRC mismatch stops the scan of that segment (the
// records before it stay indexed) without failing the open.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), index: make(map[string]ref), epoch: 1}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%08d.log", &seq); err != nil {
			continue // not ours
		}
		seg := &segment{seq: seq, path: path}
		if seg.f, err = os.OpenFile(path, os.O_RDWR, 0o644); err != nil {
			s.closeAll()
			return nil, fmt.Errorf("store: %w", err)
		}
		s.segs = append(s.segs, seg)
		if err := s.scanSegment(seg); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	// Repair the active segment's tail so appends continue from the
	// last good record.
	if n := len(s.segs); n > 0 {
		active := s.segs[n-1]
		if fi, err := active.f.Stat(); err == nil && fi.Size() > active.size {
			if err := active.f.Truncate(active.size); err != nil {
				s.closeAll()
				return nil, fmt.Errorf("store: repairing %s: %w", active.path, err)
			}
		}
	}
	return s, nil
}

// scanSegment replays one segment into the index. It stops at the
// first torn or corrupt record, leaving seg.size at the end of the
// last good one.
func (s *Store) scanSegment(seg *segment) error {
	fi, err := seg.f.Stat() // seg.f was just opened: it reads from offset 0
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReaderSize(seg.f, 1<<20)
	var (
		off    int64
		header [recHeaderLen]byte
	)
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			break // clean EOF or torn header: stop here
		}
		bodyLen := binary.LittleEndian.Uint32(header[0:4])
		wantCRC := binary.LittleEndian.Uint32(header[4:8])
		if bodyLen > maxRecordBytes || int64(bodyLen) > fi.Size()-off-recHeaderLen {
			break // corrupt length prefix, or a torn body the file cannot hold
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(br, body); err != nil {
			break // torn body
		}
		if crc32.Checksum(body, castagnoli) != wantCRC {
			break // corrupt record: framing beyond it is untrustworthy
		}
		rec, err := decodeBody(body)
		if err != nil {
			break // CRC-valid but unparseable: treat as corruption
		}
		size := int64(recHeaderLen) + int64(bodyLen)
		s.apply(rec, seg, off, size)
		off += size
	}
	seg.size = off
	return nil
}

// apply folds one scanned record into the index.
func (s *Store) apply(rec record, seg *segment, off, size int64) {
	if rec.epoch > s.epoch {
		s.epoch = rec.epoch
	}
	switch rec.kind {
	case recPut:
		s.index[rec.key] = ref{
			seg: seg, off: off, size: size,
			epoch: rec.epoch, meta: rec.entry.Meta,
			verified: rec.entry.Verified, payload: rec.entry.payloadBytes(),
		}
	case recDelete:
		delete(s.index, rec.key)
	case recTouch:
		if r, ok := s.index[rec.key]; ok {
			r.epoch = rec.epoch
			s.index[rec.key] = r
		}
	}
}

// closeAll closes every open segment (used on open failure).
func (s *Store) closeAll() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

// Close closes the store's segment files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	s.index = nil
	return first
}

// active returns the segment appends go to, rotating or bootstrapping
// as needed. The caller holds the write lock.
func (s *Store) active(recLen int64) (*segment, error) {
	if n := len(s.segs); n > 0 {
		seg := s.segs[n-1]
		if seg.size+recLen <= s.opts.SegmentBytes || seg.size == 0 {
			return seg, nil
		}
	}
	seq := 1
	if n := len(s.segs); n > 0 {
		seq = s.segs[n-1].seq + 1
	}
	return s.addSegment(seq)
}

// addSegment creates and opens segment seq.
func (s *Store) addSegment(seq int) (*segment, error) {
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	seg := &segment{seq: seq, path: path, f: f}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// append writes one encoded record to the active segment and returns
// its location. The caller holds the write lock.
func (s *Store) append(rec []byte) (*segment, int64, error) {
	seg, err := s.active(int64(len(rec)))
	if err != nil {
		return nil, 0, err
	}
	off := seg.size
	if _, err := seg.f.WriteAt(rec, off); err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	if !s.opts.NoSync {
		if err := seg.f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
	}
	seg.size += int64(len(rec))
	return seg, off, nil
}

// Put persists the entry under e.Key at the current epoch, replacing
// any previous record for the key (the old record becomes dead bytes
// until compaction).
func (s *Store) Put(e *Entry) error {
	if e.Key == "" {
		return fmt.Errorf("store: entry without a key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		return fmt.Errorf("store: closed")
	}
	rec := encodeRecord(recPut, s.epoch, e.Key, e)
	seg, off, err := s.append(rec)
	if err != nil {
		return err
	}
	s.index[e.Key] = ref{
		seg: seg, off: off, size: int64(len(rec)),
		epoch: s.epoch, meta: e.Meta, verified: e.Verified, payload: e.payloadBytes(),
	}
	return nil
}

// Get returns the entry stored under key, reading and CRC-checking
// its record from disk; ok is false on a miss.
func (s *Store) Get(key string) (e *Entry, ok bool, err error) {
	s.mu.RLock()
	r, found := s.index[key]
	s.mu.RUnlock()
	if !found {
		return nil, false, nil
	}
	buf := make([]byte, r.size)
	if _, err := r.seg.f.ReadAt(buf, r.off); err != nil {
		return nil, false, fmt.Errorf("store: reading %s@%d: %w", key, r.off, err)
	}
	bodyLen := binary.LittleEndian.Uint32(buf[0:4])
	wantCRC := binary.LittleEndian.Uint32(buf[4:8])
	if int64(bodyLen)+recHeaderLen != r.size {
		return nil, false, fmt.Errorf("store: record %s@%d reframed underfoot", key, r.off)
	}
	body := buf[recHeaderLen:]
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, false, fmt.Errorf("store: record %s@%d failed its CRC", key, r.off)
	}
	rec, err := decodeBody(body)
	if err != nil {
		return nil, false, err
	}
	if rec.kind != recPut || rec.key != key {
		return nil, false, fmt.Errorf("store: record %s@%d is not the put it should be", key, r.off)
	}
	return rec.entry, true, nil
}

// Touch refreshes key's epoch to the current one, keeping it clear of
// epoch-based pruning. A key already at the current epoch is a no-op
// (no record is written); unknown keys are ignored.
func (s *Store) Touch(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[key]
	if !ok || r.epoch == s.epoch {
		return nil
	}
	if _, _, err := s.append(encodeRecord(recTouch, s.epoch, key, nil)); err != nil {
		return err
	}
	r.epoch = s.epoch
	s.index[key] = r
	return nil
}

// Epoch returns the current epoch.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// AdvanceEpoch starts a new epoch (persisted with a marker record)
// and returns it. deepd advances once per boot, so epochs count
// daemon generations and Prune's age is "generations unused".
func (s *Store) AdvanceEpoch() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		return 0, fmt.Errorf("store: closed")
	}
	s.epoch++
	if _, _, err := s.append(encodeRecord(recEpoch, s.epoch, "", nil)); err != nil {
		s.epoch--
		return 0, err
	}
	return s.epoch, nil
}

// Prune tombstones every live key last written or touched before
// beforeEpoch and returns how many it removed. The reclaimed bytes
// stay on disk until Compact.
func (s *Store) Prune(beforeEpoch uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stale []string
	for key, r := range s.index {
		if r.epoch < beforeEpoch {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale) // deterministic log contents
	for _, key := range stale {
		if _, _, err := s.append(encodeRecord(recDelete, s.epoch, key, nil)); err != nil {
			return 0, err
		}
		delete(s.index, key)
	}
	return len(stale), nil
}

// Compact rewrites the newest record of every live key into fresh
// segments (preserving each record's epoch) and deletes the old
// files. It returns the number of disk bytes reclaimed.
func (s *Store) Compact() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		return 0, fmt.Errorf("store: closed")
	}
	before := s.diskBytes()
	old := s.segs
	nextSeq := 1
	if n := len(old); n > 0 {
		nextSeq = old[n-1].seq + 1
	}

	// Copy live records in stable (segment, offset) order so compaction
	// is deterministic and preserves append order.
	keys := make([]string, 0, len(s.index))
	for key := range s.index {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := s.index[keys[i]], s.index[keys[j]]
		if a.seg.seq != b.seg.seq {
			return a.seg.seq < b.seg.seq
		}
		return a.off < b.off
	})

	s.segs = nil
	if _, err := s.addSegment(nextSeq); err != nil {
		s.segs = old
		return 0, err
	}
	fresh := make(map[string]ref, len(s.index))
	for _, key := range keys {
		r := s.index[key]
		buf := make([]byte, r.size)
		if _, err := r.seg.f.ReadAt(buf, r.off); err != nil {
			s.removeSegments(s.segs)
			s.segs = old
			return 0, fmt.Errorf("store: compact read %s: %w", key, err)
		}
		// Re-encode at the record's own epoch so pruning ages survive
		// compaction (and the copy is CRC-verified on the way through).
		body := buf[recHeaderLen:]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
			s.removeSegments(s.segs)
			s.segs = old
			return 0, fmt.Errorf("store: compact: record %s failed its CRC", key)
		}
		rec, err := decodeBody(body)
		if err != nil || rec.kind != recPut {
			s.removeSegments(s.segs)
			s.segs = old
			return 0, fmt.Errorf("store: compact: record %s undecodable: %v", key, err)
		}
		out := encodeRecord(recPut, r.epoch, key, rec.entry)
		seg, off, err := s.append(out)
		if err != nil {
			s.removeSegments(s.segs)
			s.segs = old
			return 0, err
		}
		nr := r
		nr.seg, nr.off, nr.size = seg, off, int64(len(out))
		fresh[key] = nr
	}
	// Persist the epoch counter past the rewrite, then make the fresh
	// segments durable before the old ones disappear.
	if _, _, err := s.append(encodeRecord(recEpoch, s.epoch, "", nil)); err != nil {
		s.removeSegments(s.segs)
		s.segs = old
		return 0, err
	}
	for _, seg := range s.segs {
		if err := seg.f.Sync(); err != nil {
			s.removeSegments(s.segs)
			s.segs = old
			return 0, fmt.Errorf("store: %w", err)
		}
	}
	s.index = fresh
	s.removeSegments(old)
	return before - s.diskBytes(), nil
}

// removeSegments closes and deletes segment files.
func (s *Store) removeSegments(segs []*segment) {
	for _, seg := range segs {
		seg.f.Close()
		os.Remove(seg.path)
	}
}

// diskBytes sums the valid bytes of every segment. Caller holds a
// lock.
func (s *Store) diskBytes() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Dir: s.dir, Segments: len(s.segs), Entries: len(s.index), Epoch: s.epoch}
	for _, r := range s.index {
		st.LiveBytes += r.size
	}
	st.DiskBytes = s.diskBytes()
	if st.DiskBytes > 0 {
		st.LiveRatio = float64(st.LiveBytes) / float64(st.DiskBytes)
	} else {
		st.LiveRatio = 1
	}
	return st
}

// Recent lists every live key, newest epoch first (key order within
// an epoch) — the order deepd primes its LRU in on warm start.
func (s *Store) Recent() []KeyInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]KeyInfo, 0, len(s.index))
	for key, r := range s.index {
		out = append(out, KeyInfo{Key: key, Meta: r.meta, Epoch: r.epoch, Bytes: r.payload, Verified: r.verified})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Epoch != out[j].Epoch {
			return out[i].Epoch > out[j].Epoch
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Query lists the live keys tagged with meta (an experiment id or
// "workload:<kind>"), in key order.
func (s *Store) Query(meta string) []KeyInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []KeyInfo
	for key, r := range s.index {
		if r.meta == meta {
			out = append(out, KeyInfo{Key: key, Meta: r.meta, Epoch: r.epoch, Bytes: r.payload, Verified: r.verified})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
