package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/deep"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
)

// Shape of the deepd_mix op. One round is 1 miss, then 8 resubmissions
// of that spec (LRU hits), then the next 8 specs of the cold set in
// cyclic order (store hits: a cold spec comes round again after
// coldSpecs/8 = 64 rounds and 576 cache insertions, so the 64-entry
// LRU has long dropped it).
const (
	deepdRounds      = 20
	deepdHitsPerMiss = 8
	deepdColdPerMiss = 8
	deepdColdSpecs   = 512
	deepdLRUEntries  = 64
	deepdWarmUps     = 3
)

// Requests and server-counter deltas one op must produce, exactly.
const (
	deepdSubmitsPerOp   = deepdRounds * (1 + deepdHitsPerMiss + deepdColdPerMiss)
	deepdCacheHitsPerOp = deepdRounds * (deepdHitsPerMiss + deepdColdPerMiss)
	deepdStoreHitsPerOp = deepdRounds * deepdColdPerMiss
	// Every miss and every store hit inserts into the full LRU.
	deepdEvictionsPerOp = deepdRounds * (1 + deepdColdPerMiss)
)

// deepdStats is the part of GET /v1/stats the op checks.
type deepdStats struct {
	Submitted uint64 `json:"submitted"`
	CacheHits uint64 `json:"cache_hits"`
	StoreHits uint64 `json:"store_hits"`
	Cache     struct {
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Store struct {
		DiskBytes int64 `json:"disk_bytes"`
	} `json:"store"`
}

// coldSpec is one pre-populated spec and the digest of its result body
// as first computed.
type coldSpec struct {
	body string
	sum  [sha256.Size]byte
}

// deepdMix is the deepd_mix workload: an in-process deepd behind real
// loopback HTTP, one client on one keep-alive connection, a store in a
// fresh directory. The simulation (E04) is trivial on purpose; the op
// is normalise, hash, queue, encode and store-write on the miss side
// and cache or store lookup on the hit side.
type deepdMix struct {
	seed uint64

	dir  string
	st   *store.Store
	srv  *serve.Server
	ts   *httptest.Server
	http *http.Client

	cold     []coldSpec
	nextCold int
	nextSeed uint64 // seed of the next miss spec
	last     deepdStats
	opBytes  int64 // store bytes the last op appended
}

func specBody(seed uint64) string { return fmt.Sprintf(`{"experiment":"E04","seed":%d}`, seed) }

func (w *deepdMix) setUp() error {
	var err error
	if w.dir, err = os.MkdirTemp(outDir(), "store-"); err != nil {
		return err
	}
	// NoSync: an fsync on this host's shared disk takes 0.3 to 15 ms
	// from one call to the next, twenty of them would be a third of the
	// op, and none of that time is the repo's code. The write path up to
	// the flush stays in the op; store.put_us_p50 probes a synced Put.
	if w.st, err = store.Open(w.dir, store.Options{NoSync: true}); err != nil {
		return err
	}
	w.srv = serve.New(serve.Options{Workers: 2, CacheEntries: deepdLRUEntries, Store: w.st})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.http = w.ts.Client()

	// Spec seeds come from the run seed: 40 random bits, the cold set
	// right above them and the misses a million further on.
	base := rng.New(w.seed).Uint64() >> 24
	w.nextSeed = base + 1_000_000
	w.cold, w.nextCold = make([]coldSpec, deepdColdSpecs), 0
	for i := range w.cold {
		w.cold[i].body = specBody(base + 1 + uint64(i))
		if w.cold[i].sum, err = w.miss(nil, -1, w.cold[i].body); err != nil {
			return fmt.Errorf("populating the store: %w", err)
		}
	}
	if w.last, err = w.stats(); err != nil {
		return err
	}
	for i := 0; i < deepdWarmUps; i++ {
		if err := w.op(nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *deepdMix) tearDown() {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Drain(5 * time.Second)
		w.ts = nil
	}
	if w.st != nil {
		w.st.Close() //nolint:errcheck // the directory is removed next
		w.st = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir) //nolint:errcheck // best effort; bench/out is git-ignored
		w.dir = ""
	}
}

// do sends one request and returns the response body. Reading the body
// to its end is what lets the one connection be reused.
func (w *deepdMix) do(method, path, body string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, w.ts.URL+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, data)
	}
	return data, nil
}

func (w *deepdMix) stats() (deepdStats, error) {
	var st deepdStats
	data, err := w.do("GET", "/v1/stats", "", http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// submit posts a spec and checks the server's cache_hit verdict.
func (w *deepdMix) submit(t *tracer, parent int32, body string, wantHit bool) (string, error) {
	s := t.open("serve.submit", parent)
	data, err := w.do("POST", "/v1/jobs", body, http.StatusAccepted)
	t.shut(s)
	if err != nil {
		return "", err
	}
	var job struct {
		ID       string `json:"id"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return "", err
	}
	if job.CacheHit != wantHit {
		return "", fmt.Errorf("job %s for %s: cache_hit %v, schedule says %v", job.ID, body, job.CacheHit, wantHit)
	}
	return job.ID, nil
}

// result fetches a finished job's result body and returns its digest.
func (w *deepdMix) result(t *tracer, parent int32, id string) ([sha256.Size]byte, error) {
	s := t.open("serve.result", parent)
	data, err := w.do("GET", "/v1/jobs/"+id+"/result", "", http.StatusOK)
	t.shut(s)
	return sha256.Sum256(data), err
}

// miss submits a spec the server has not seen, follows its event
// stream to the terminal event and fetches the result.
func (w *deepdMix) miss(t *tracer, parent int32, body string) ([sha256.Size]byte, error) {
	id, err := w.submit(t, parent, body, false)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	s := t.open("serve.wait", parent)
	events, err := w.do("GET", "/v1/jobs/"+id+"/events", "", http.StatusOK)
	t.shut(s)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	if !bytes.Contains(events, []byte("event: done\n")) {
		return [sha256.Size]byte{}, fmt.Errorf("job %s did not finish: %s", id, events)
	}
	return w.result(t, parent, id)
}

// hit resubmits a known spec; the server must answer from its cache or
// store with the bytes of the first computation.
func (w *deepdMix) hit(t *tracer, parent int32, body string, want [sha256.Size]byte) error {
	id, err := w.submit(t, parent, body, true)
	if err != nil {
		return err
	}
	got, err := w.result(t, parent, id)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("job %s for %s: result body differs from the first computation", id, body)
	}
	return nil
}

func (w *deepdMix) op(t *tracer) error {
	root := t.open("op", -1)
	for r := 0; r < deepdRounds; r++ {
		round := t.open("serve.round", root)
		body := specBody(w.nextSeed)
		w.nextSeed++
		s := t.open("serve.miss", round)
		sum, err := w.miss(t, s, body)
		t.shut(s)
		if err != nil {
			return err
		}
		for i := 0; i < deepdHitsPerMiss; i++ {
			s := t.open("serve.lru_hit", round)
			err := w.hit(t, s, body, sum)
			t.shut(s)
			if err != nil {
				return err
			}
		}
		for i := 0; i < deepdColdPerMiss; i++ {
			c := w.cold[w.nextCold%len(w.cold)]
			w.nextCold++
			s := t.open("serve.store_hit", round)
			err := w.hit(t, s, c.body, c.sum)
			t.shut(s)
			if err != nil {
				return err
			}
		}
		t.shut(round)
	}
	// The server's own counters must have moved by exactly the schedule.
	s := t.open("serve.stats", root)
	now, err := w.stats()
	t.shut(s)
	t.shut(root)
	if err != nil {
		return err
	}
	prev := w.last
	w.last, w.opBytes = now, now.Store.DiskBytes-prev.Store.DiskBytes
	got := [4]uint64{now.Submitted - prev.Submitted, now.CacheHits - prev.CacheHits,
		now.StoreHits - prev.StoreHits, now.Cache.Evictions - prev.Cache.Evictions}
	want := [4]uint64{deepdSubmitsPerOp, deepdCacheHitsPerOp, deepdStoreHitsPerOp, deepdEvictionsPerOp}
	if got != want {
		return fmt.Errorf("server counters (submitted, cache hits, store hits, evictions) moved by %v, schedule says %v", got, want)
	}
	return nil
}

func (w *deepdMix) layers(b *tracedBlock, _ time.Duration) (map[string]float64, error) {
	m := map[string]float64{
		// The op just asserted these deltas, so they are the schedule's.
		"serve.cache_hit_ratio":   float64(deepdCacheHitsPerOp) / deepdSubmitsPerOp,
		"serve.evictions_per_op":  deepdEvictionsPerOp,
		"serve.store_hits_per_op": deepdStoreHitsPerOp,
		"store.bytes_per_op":      float64(w.opBytes),
	}
	for _, name := range []string{"miss", "lru_hit", "store_hit", "submit", "wait", "result"} {
		m["serve."+name+"_ms_p50"] = median(b.t.each("serve." + name))
	}

	rep, err := (&deep.Runner{}).Run(context.Background(), "E04")
	if err != nil {
		return nil, err
	}
	if m["store.put_us_p50"], m["store.get_us_p50"], err = probeStore(rep); err != nil {
		return nil, err
	}
	const n = 2000
	m["deep.content_hash_us"] = timeEach(n, func(i int) {
		deep.ContentHash(serve.JobSpec{Experiment: "E04", Seed: w.seed + uint64(i)}) //nolint:errcheck // cannot fail on a plain struct
	})
	m["deep.json_encode_us"] = timeEach(n, func(int) {
		deep.JSONSink{}.Write(io.Discard, rep) //nolint:errcheck // io.Discard does not fail
	})
	m["deep.table_render_us"] = timeEach(n, func(int) {
		deep.TableSink{}.Write(io.Discard, rep) //nolint:errcheck // io.Discard does not fail
	})
	return m, nil
}

// timeEach returns the median µs of n timed calls of fn.
func timeEach(n int, fn func(i int)) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn(i)
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us)
}

// probeStore times store.Put and store.Get on a fresh store with an
// entry the size of a real E04 result (its JSON and text renderings).
func probeStore(rep *deep.Report) (putUS, getUS float64, err error) {
	var result, text bytes.Buffer
	if err := (deep.JSONSink{}).Write(&result, rep); err != nil {
		return 0, 0, err
	}
	if err := (deep.TableSink{}).Write(&text, rep); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(outDir(), "probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	const n = 300
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	putUS = timeEach(n, func(i int) {
		if perr := st.Put(&store.Entry{Key: key(i), Meta: "E04", Verified: true,
			Result: result.Bytes(), Text: text.Bytes()}); perr != nil {
			err = perr
		}
	})
	getUS = timeEach(n, func(i int) {
		if _, ok, gerr := st.Get(key(i)); gerr != nil || !ok {
			err = fmt.Errorf("store probe: get %d: ok=%v err=%v", i, ok, gerr)
		}
	})
	return putUS, getUS, err
}
