package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/deep"
	"repro/internal/store"
)

// Options configures a Server. Zero values take the documented
// defaults.
type Options struct {
	// Workers bounds concurrently running jobs (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-not-running jobs (default 256).
	QueueDepth int
	// CacheBytes and CacheEntries bound the result cache (defaults
	// 256 MiB / 4096 entries; negative: unbounded).
	CacheBytes   int64
	CacheEntries int
	// DefaultDeadline bounds a job's wall-clock run time when the spec
	// sets none (default 10 minutes).
	DefaultDeadline time.Duration
	// RetainJobs bounds how many terminal job records the server keeps
	// for status queries (default 4096; the cache outlives the record).
	RetainJobs int
	// DefaultDomains is the parallel-kernel domain count applied to
	// specs that set none (0: keep the sequential default). Applied
	// before normalization, so it is part of the content address of
	// experiment and traffic jobs — a server-wide simulation default,
	// not a scheduling hint. Normalization drops it from every other
	// workload job, whose result does not depend on it.
	DefaultDomains int
	// Store, when non-nil, persists finished results across restarts:
	// the cache warm-starts from it on boot, LRU misses fall back to
	// it, and completions write through. The caller owns the store's
	// lifecycle (open before New, close after Drain).
	Store *store.Store
}

// withDefaults fills the documented defaults.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 10 * time.Minute
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 4096
	}
	return o
}

// Server is the deepd service core: job store, worker pool and result
// cache behind an http.Handler. Construct with New, serve Handler(),
// and call Drain on shutdown.
type Server struct {
	opts  Options
	cache *Cache
	pool  *Pool
	store *store.Store
	start time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // submission order, for listing/pruning
	inflight map[string]*job // content key -> live primary job
	seq      int

	submitted   uint64
	cacheHits   uint64
	coalesced   uint64
	storeHits   uint64
	storeErrors uint64
	warmed      int

	// exec runs one normalized spec; it is execute in production and a
	// seam for deterministic lifecycle tests.
	exec func(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error)
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	// Submitted counts every accepted job; CacheHits counts jobs
	// answered from the content-addressed cache without simulating;
	// Coalesced counts jobs attached to an identical in-flight run.
	Submitted uint64 `json:"submitted"`
	CacheHits uint64 `json:"cache_hits"`
	Coalesced uint64 `json:"coalesced"`
	// Jobs breaks the retained records down by state.
	Jobs  map[State]int `json:"jobs"`
	Cache CacheStats    `json:"cache"`
	// StoreHits counts jobs answered from the persistent store after an
	// LRU miss; StoreErrors counts failed write-throughs; StoreWarmed is
	// how many entries primed the cache on boot. Store carries the
	// store's own size/segment/live-ratio stats, absent when the daemon
	// runs without one.
	StoreHits   uint64       `json:"store_hits"`
	StoreErrors uint64       `json:"store_errors"`
	StoreWarmed int          `json:"store_warmed"`
	Store       *store.Stats `json:"store,omitempty"`
	Workers     int          `json:"workers"`
	Draining    bool         `json:"draining"`
	UptimeS     float64      `json:"uptime_s"`
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	s := &Server{
		opts:     opts.withDefaults(),
		start:    time.Now(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		exec:     execute,
	}
	s.cache = NewCache(s.opts.CacheBytes, s.opts.CacheEntries)
	s.store = s.opts.Store
	if s.store != nil {
		s.primeCache()
	}
	s.pool = NewPool(s.opts.Workers, s.opts.QueueDepth, s.runJob, s.dropJob)
	return s
}

// Drain stops admitting jobs and waits up to timeout for in-flight
// work; stragglers are cancelled. True on a clean drain.
func (s *Server) Drain(timeout time.Duration) bool { return s.pool.Drain(timeout) }

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/text", s.handleText)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return mux
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

// writeError renders a typed error body.
func writeError(w http.ResponseWriter, err error) {
	e := asError(err)
	writeJSON(w, e.Status(), e)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.pool.Draining()})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, deep.Experiments())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := ServerStats{
		Submitted: s.submitted,
		CacheHits: s.cacheHits,
		Coalesced: s.coalesced,
		Jobs:      make(map[State]int),
	}
	for _, id := range s.order {
		st.Jobs[s.jobs[id].status().State]++
	}
	st.StoreHits = s.storeHits
	st.StoreErrors = s.storeErrors
	st.StoreWarmed = s.warmed
	s.mu.Unlock()
	st.Cache = s.cache.Stats()
	if s.store != nil {
		sst := s.store.Stats()
		st.Store = &sst
	}
	st.Workers = s.opts.Workers
	st.Draining = s.pool.Draining()
	st.UptimeS = time.Since(s.start).Seconds()
	writeJSON(w, http.StatusOK, st)
}

// SubmitResponse is the POST /v1/jobs reply.
type SubmitResponse struct {
	JobStatus
	// CacheHits is the server-wide cache-hit counter at submit time —
	// the "did my resubmission actually hit?" signal in one place.
	CacheHits uint64 `json:"cache_hits"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec := &JobSpec{}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		writeError(w, invalidf("decoding spec: %v", err))
		return
	}
	if spec.Domains == 0 {
		spec.Domains = s.opts.DefaultDomains
	}
	key, err := normalize(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	j, err := s.admit(key, spec)
	if err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	hits := s.cacheHits
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, SubmitResponse{JobStatus: j.status(), CacheHits: hits})
}

// admit registers a job for the spec: a cache hit completes it
// immediately, an identical in-flight spec coalesces onto the running
// job, anything else enters the worker queue.
func (s *Server) admit(key string, spec *JobSpec) (*job, error) {
	if s.pool.Draining() {
		return nil, errf(ErrDraining, http.StatusServiceUnavailable, "daemon is draining; no new jobs")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := newJob(fmt.Sprintf("j-%06d", s.seq), key, spec)

	if entry := s.cache.Get(key); entry != nil {
		s.submitted++
		s.cacheHits++
		s.register(j)
		j.finish(StateDone, entry, "", true)
		if s.store != nil {
			s.store.Touch(key) //nolint:errcheck // advisory liveness marker
		}
		return j, nil
	}
	if entry := s.storeLookup(key); entry != nil {
		s.submitted++
		s.cacheHits++
		s.register(j)
		j.finish(StateDone, entry, "", true)
		return j, nil
	}
	if prim, ok := s.inflight[key]; ok {
		s.submitted++
		s.coalesced++
		s.register(j)
		j.emit("coalesced", prim.id)
		go s.awaitPrimary(j, prim)
		return j, nil
	}
	if err := s.pool.Submit(j); err != nil {
		s.seq-- // job never existed
		return nil, err
	}
	s.submitted++
	s.inflight[key] = j
	s.register(j)
	return j, nil
}

// register stores the job record and prunes the oldest terminal
// records beyond the retention bound; queued and running jobs are
// never pruned. The caller holds s.mu.
func (s *Server) register(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	excess := len(s.order) - s.opts.RetainJobs
	// Jobs finish roughly in submission order, so the records to drop
	// are almost always at the front: a steady stream of submits prunes
	// in constant time instead of rebuilding the list under the lock.
	for excess > 0 && s.jobs[s.order[0]].status().State.terminal() {
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
		excess--
	}
	if excess <= 0 {
		return
	}
	// The oldest record is still queued or running: keep it and drop the
	// oldest terminal records behind it.
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].status().State.terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// awaitPrimary completes a coalesced job from its primary's outcome.
func (s *Server) awaitPrimary(j, prim *job) {
	select {
	case <-prim.done:
	case <-j.stop:
		j.finish(StateCancelled, nil, "cancelled", false)
		return
	}
	st := prim.status()
	switch st.State {
	case StateDone:
		s.mu.Lock()
		s.cacheHits++
		s.mu.Unlock()
		j.finish(StateDone, prim.result(), "", true)
	case StateCancelled:
		// The primary died without producing a result; rerunning would
		// surprise the queue bound, so report the cancellation.
		j.finish(StateCancelled, nil, "coalesced onto cancelled job "+prim.id, false)
	default:
		j.finish(StateFailed, nil, st.Error, false)
	}
}

// runJob is the pool's execution function.
func (s *Server) runJob(base context.Context, j *job) {
	deadline := s.opts.DefaultDeadline
	if d := j.spec.DeadlineS; d > 0 {
		deadline = time.Duration(d * float64(time.Second))
	}
	ctx, cancel := context.WithTimeout(base, deadline)
	defer cancel()
	if !j.setRunning(cancel) {
		// Cancelled while queued.
		s.release(j)
		return
	}
	select {
	case <-j.stop: // cancel raced the dequeue
		s.release(j)
		j.finish(StateCancelled, nil, "cancelled", false)
		return
	default:
	}
	entry, err := s.exec(ctx, j.spec, func(label string) { j.emit("progress", label) })
	s.release(j)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			j.finish(StateCancelled, nil, "cancelled", false)
		case errors.Is(err, context.DeadlineExceeded):
			j.finish(StateFailed, nil, fmt.Sprintf("deadline exceeded after %v", deadline), false)
		default:
			j.finish(StateFailed, nil, err.Error(), false)
		}
		return
	}
	s.cache.Put(entry)
	s.storeWrite(entry)
	j.finish(StateDone, entry, "", false)
}

// dropJob is the pool's hard-stop path: a drain timed out, the base
// context is cancelled, and this job was still queued — it terminates
// as cancelled without ever executing.
func (s *Server) dropJob(j *job) {
	s.release(j)
	j.finish(StateCancelled, nil, "cancelled: daemon drained before the job started", false)
}

// release drops the job from the in-flight index.
func (s *Server) release(j *job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// lookup resolves a job id.
func (s *Server) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, errf(ErrNotFound, http.StatusNotFound, "no job %q", id)
	}
	return j, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.status())
}

// finishedEntry resolves a terminal job's cache entry with typed
// errors for the live/failed cases.
func (s *Server) finishedEntry(id string) (*Entry, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	st := j.status()
	if !st.State.terminal() {
		return nil, errf(ErrNotFinished, http.StatusConflict,
			"job %s is %s; poll GET /v1/jobs/%s until it finishes", id, st.State, id)
	}
	entry := j.result()
	if entry == nil {
		return nil, errf(ErrJobFailed, http.StatusConflict, "job %s %s: %s", id, st.State, st.Error)
	}
	return entry, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	entry, err := s.finishedEntry(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(entry.Result) //nolint:errcheck
}

func (s *Server) handleText(w http.ResponseWriter, r *http.Request) {
	entry, err := s.finishedEntry(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(entry.Text) //nolint:errcheck
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	entry, err := s.finishedEntry(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if entry.Trace == nil {
		writeError(w, errf(ErrNoArtifact, http.StatusNotFound,
			"job recorded no trace (submit with \"trace\": true)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(entry.Trace) //nolint:errcheck
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entry, err := s.finishedEntry(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if entry.Metrics == nil {
		writeError(w, errf(ErrNoArtifact, http.StatusNotFound,
			"job sampled no metrics (submit with \"metrics_every_s\" > 0)"))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(entry.Metrics) //nolint:errcheck
}

// handleEvents streams the job's progress events as server-sent
// events: full history first, then live events until the job reaches
// a terminal state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(ErrInternal, http.StatusInternalServerError, "response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, live, detach := j.subscribe()
	defer detach()
	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		flusher.Flush()
		return State(ev.Type) != StateDone && State(ev.Type) != StateFailed && State(ev.Type) != StateCancelled
	}
	for _, ev := range history {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-live:
			if !send(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
