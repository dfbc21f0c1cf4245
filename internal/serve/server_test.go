package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/deep"
)

// harness wires a Server behind an httptest listener.
type harness struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
}

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(5 * time.Second)
	})
	return &harness{t: t, srv: srv, ts: ts}
}

// submit POSTs a spec and decodes the 202 response.
func (h *harness) submit(body string) SubmitResponse {
	h.t.Helper()
	resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		h.t.Fatalf("submit %s: status %d: %s", body, resp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		h.t.Fatalf("submit response %s: %v", raw, err)
	}
	return sub
}

// submitErr POSTs a spec expecting a typed error.
func (h *harness) submitErr(body string) (int, Error) {
	h.t.Helper()
	resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		h.t.Fatalf("decoding error body: %v", err)
	}
	return resp.StatusCode, e
}

// get fetches a path, returning status and body.
func (h *harness) get(path string) (int, []byte) {
	h.t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// status fetches a job's status.
func (h *harness) status(id string) JobStatus {
	h.t.Helper()
	code, body := h.get("/v1/jobs/" + id)
	if code != http.StatusOK {
		h.t.Fatalf("status %s: %d: %s", id, code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatal(err)
	}
	return st
}

// wait polls a job until it reaches a terminal state.
func (h *harness) wait(id string) JobStatus {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := h.status(id)
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls until the job reaches the given state.
func (h *harness) waitState(id string, want State) {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := h.status(id)
		if st.State == want {
			return
		}
		if st.State.terminal() || time.Now().After(deadline) {
			h.t.Fatalf("job %s in state %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (h *harness) stats() ServerStats {
	h.t.Helper()
	code, body := h.get("/v1/stats")
	if code != http.StatusOK {
		h.t.Fatalf("stats: %d: %s", code, body)
	}
	var st ServerStats
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatal(err)
	}
	return st
}

// blockingExec installs an executor that parks jobs until release is
// called (or their context ends), then returns a canned entry. It
// gives lifecycle tests deterministic control over "running".
func (h *harness) blockingExec() (release func()) {
	gate := make(chan struct{})
	h.srv.exec = func(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error) {
		progress("blocked")
		key, err := spec.Key()
		if err != nil {
			return nil, err
		}
		select {
		case <-gate:
			return &Entry{Key: key, Result: []byte(`{"kind":"test"}`), Text: []byte("test\n"), Verified: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var once func()
	once = func() { close(gate); once = func() {} }
	return func() { once() }
}

// TestSubmitCacheHitE2E is the acceptance walk: submit E01, poll to
// done, fetch the result; resubmit the identical spec and get the
// byte-identical result from the cache without re-running.
func TestSubmitCacheHitE2E(t *testing.T) {
	h := newHarness(t, Options{Workers: 2})

	sub := h.submit(`{"experiment": "E01"}`)
	if sub.State == StateDone && !sub.CacheHit {
		t.Fatalf("fresh submission already done without a cache hit: %+v", sub)
	}
	first := h.wait(sub.ID)
	if first.State != StateDone || first.CacheHit {
		t.Fatalf("first run finished %s (cache_hit=%v)", first.State, first.CacheHit)
	}
	if first.Events < 2 { // queued, started, progress…, done
		t.Fatalf("first run emitted %d events", first.Events)
	}
	code, freshResult := h.get("/v1/jobs/" + sub.ID + "/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, freshResult)
	}
	var payload deep.ResultPayload
	if err := json.Unmarshal(freshResult, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Kind != "experiment" || payload.Experiment == nil ||
		payload.Experiment.ID != "E01" || payload.Experiment.Table == nil {
		t.Fatalf("malformed result payload: %s", freshResult)
	}
	if payload.Key != sub.Key {
		t.Fatalf("payload key %s != job key %s", payload.Key, sub.Key)
	}

	// The text rendering must match the repo's golden file exactly —
	// serving through the daemon (with its progress hooks) must not
	// perturb simulation output.
	golden, err := os.ReadFile("../../deep/testdata/E01.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, text := h.get("/v1/jobs/" + sub.ID + "/text")
	if code != http.StatusOK || !bytes.Equal(text, golden) {
		t.Fatalf("text (%d) drifted from E01.golden:\n%s", code, text)
	}

	// Resubmit: spelled-out defaults, same content address.
	resub := h.submit(`{"experiment": "E01", "scale": 1, "fidelity": "default"}`)
	if resub.Key != sub.Key {
		t.Fatalf("resubmission key %s != %s", resub.Key, sub.Key)
	}
	if resub.State != StateDone || !resub.CacheHit {
		t.Fatalf("resubmission not served from cache: %+v", resub)
	}
	if resub.CacheHits == 0 {
		t.Fatal("submit response reports zero cache hits")
	}
	code, cachedResult := h.get("/v1/jobs/" + resub.ID + "/result")
	if code != http.StatusOK || !bytes.Equal(cachedResult, freshResult) {
		t.Fatalf("cached result is not byte-identical to the fresh one (%d)", code)
	}

	st := h.stats()
	if st.Submitted != 2 || st.CacheHits != 1 || st.Cache.Hits != 1 {
		t.Fatalf("stats after resubmission: %+v", st)
	}
	if st.Jobs[StateDone] != 2 {
		t.Fatalf("job breakdown: %+v", st.Jobs)
	}
}

// TestWorkloadJob runs a custom workload end to end, including the
// failed-verification path surfacing as verified=false.
func TestWorkloadJob(t *testing.T) {
	h := newHarness(t, Options{Workers: 2})

	ok := h.wait(h.submit(`{"workload": {"kind": "spmv"}}`).ID)
	if ok.State != StateDone || !ok.Verified || ok.Workload != "spmv" {
		t.Fatalf("spmv job: %+v", ok)
	}
	_, text := h.get("/v1/jobs/" + ok.ID + "/text")
	if !bytes.Contains(text, []byte("VERIFIED")) {
		t.Fatalf("spmv text lacks VERIFIED:\n%s", text)
	}
	_, body := h.get("/v1/jobs/" + ok.ID + "/result")
	var payload deep.ResultPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Kind != "workload" || payload.Workload == nil || !payload.Workload.Verified {
		t.Fatalf("workload payload: %s", body)
	}

	// A negative tolerance deterministically fails verification: the
	// job still finishes "done", but flagged unverified.
	bad := h.wait(h.submit(`{"workload": {"kind": "spmv", "tol": -1}}`).ID)
	if bad.State != StateDone || bad.Verified {
		t.Fatalf("tol=-1 spmv job: %+v", bad)
	}
	_, text = h.get("/v1/jobs/" + bad.ID + "/text")
	if !bytes.Contains(text, []byte("FAILED")) {
		t.Fatalf("failed-verification text lacks FAILED:\n%s", text)
	}
}

// TestExperimentJobHonoursMaxWindow: an experiment job runs with every
// run knob its content key names, the adaptive-window cap included.
func TestExperimentJobHonoursMaxWindow(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	st := h.wait(h.submit(`{"experiment": "E15", "domains": 2, "max_window": 8, "max_nodes": 1000}`).ID)
	if st.State != StateDone {
		t.Fatalf("E15 job: %+v", st)
	}
	_, body := h.get("/v1/jobs/" + st.ID + "/result")
	var payload deep.ResultPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Experiment == nil || payload.Experiment.Table.Summary["kernel_max_window"] != 8 {
		t.Fatalf("E15 ran without its max_window: %s", body)
	}
}

// TestArtifacts: trace and metrics attachments round-trip, and jobs
// without them get typed no_artifact errors.
func TestArtifacts(t *testing.T) {
	h := newHarness(t, Options{Workers: 2})

	plain := h.wait(h.submit(`{"experiment": "E13"}`).ID)
	code, body := h.get("/v1/jobs/" + plain.ID + "/trace")
	if code != http.StatusNotFound || !bytes.Contains(body, []byte(ErrNoArtifact)) {
		t.Fatalf("trace of untraced job: %d %s", code, body)
	}

	// E13 is event-driven, so tracing it yields real trace events and
	// metrics samples (analytic experiments would record empty ones).
	rich := h.wait(h.submit(`{"experiment": "E13", "trace": true, "metrics_every_s": 0.5}`).ID)
	if rich.Key == plain.Key {
		t.Fatal("artifact flags did not change the content key")
	}
	if code, body = h.get("/v1/jobs/" + rich.ID + "/trace"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("trace: %d (%d bytes)", code, len(body))
	}
	if !bytes.HasPrefix(body, []byte("[{")) || !bytes.Contains(body, []byte(`"ph"`)) {
		t.Fatalf("trace is not Chrome trace-event JSON: %.120s", body)
	}
	if code, body = h.get("/v1/jobs/" + rich.ID + "/metrics"); code != http.StatusOK ||
		!bytes.HasPrefix(body, []byte("run,metric,unit,t_s,value")) {
		t.Fatalf("metrics: %d: %.120s", code, body)
	}
}

// TestValidation maps malformed submissions to typed error codes.
func TestValidation(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	cases := []struct {
		body   string
		status int
		code   ErrorCode
	}{
		{`{`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"experiment": "E01", "bogus": 1}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"experiment": "E99"}`, http.StatusBadRequest, ErrUnknownExperiment},
		{`{"workload": {"kind": "fft"}}`, http.StatusBadRequest, ErrUnknownWorkload},
		{`{"experiment": "E01", "workload": {"kind": "spmv"}}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"experiment": "E01", "fidelity": "exact"}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"experiment": "E01", "deadline_s": -3}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"workload": {"kind": "cholesky", "n": 100, "tile_size": 16}}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"workload": {"kind": "traffic", "window_ms": 1e-10}}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"workload": {"kind": "traffic", "window_ms": 1e10}}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"workload": {"kind": "stencil", "nx": 4294967296, "ny": 4294967296}}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"workload": {"kind": "spmv", "nx": 4294967296, "ny": 4294967296}}`, http.StatusBadRequest, ErrInvalidRequest},
		{`{"workload": {"kind": "stencil", "nx": 2}}`, http.StatusBadRequest, ErrInvalidRequest},
	}
	for _, c := range cases {
		status, e := h.submitErr(c.body)
		if status != c.status || e.Code != c.code {
			t.Errorf("%s: got %d/%s, want %d/%s", c.body, status, e.Code, c.status, c.code)
		}
		if e.Message == "" {
			t.Errorf("%s: empty error message", c.body)
		}
	}
	if code, body := h.get("/v1/jobs/j-999999"); code != http.StatusNotFound ||
		!bytes.Contains(body, []byte(ErrNotFound)) {
		t.Errorf("unknown job id: %d %s", code, body)
	}
}

// TestCancelRunning cancels a job mid-execution and checks it lands
// in cancelled, with the result endpoint reporting job_failed.
func TestCancelRunning(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	release := h.blockingExec()
	defer release()

	sub := h.submit(`{"experiment": "E01"}`)
	h.waitState(sub.ID, StateRunning)
	if code, body := h.get("/v1/jobs/" + sub.ID + "/result"); code != http.StatusConflict ||
		!bytes.Contains(body, []byte(ErrNotFinished)) {
		t.Fatalf("result of running job: %d %s", code, body)
	}
	resp, err := http.Post(h.ts.URL+"/v1/jobs/"+sub.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := h.wait(sub.ID)
	if st.State != StateCancelled {
		t.Fatalf("cancelled job finished %s", st.State)
	}
	if code, body := h.get("/v1/jobs/" + sub.ID + "/result"); code != http.StatusConflict ||
		!bytes.Contains(body, []byte(ErrJobFailed)) {
		t.Fatalf("result of cancelled job: %d %s", code, body)
	}
}

// TestCancelQueued cancels a job stuck behind the single worker: it
// must finish cancelled without ever running, and the worker must
// skip it on dequeue.
func TestCancelQueued(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	release := h.blockingExec()

	front := h.submit(`{"experiment": "E01"}`)
	h.waitState(front.ID, StateRunning)
	queued := h.submit(`{"experiment": "E04"}`)
	if st := h.status(queued.ID); st.State != StateQueued {
		t.Fatalf("second job is %s with one busy worker", st.State)
	}
	resp, err := http.Post(h.ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := h.wait(queued.ID); st.State != StateCancelled || !st.StartedAt.IsZero() {
		t.Fatalf("queued cancel: %+v", st)
	}
	release()
	if st := h.wait(front.ID); st.State != StateDone {
		t.Fatalf("front job finished %s", st.State)
	}
}

// TestCoalesce attaches an identical submission to the in-flight
// primary instead of queueing a duplicate run.
func TestCoalesce(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	release := h.blockingExec()

	prim := h.submit(`{"experiment": "E01"}`)
	h.waitState(prim.ID, StateRunning)
	dup := h.submit(`{"experiment": "E01"}`)
	if dup.Key != prim.Key {
		t.Fatalf("duplicate key %s != %s", dup.Key, prim.Key)
	}
	release()
	if st := h.wait(dup.ID); st.State != StateDone || !st.CacheHit {
		t.Fatalf("coalesced job: %+v", st)
	}
	if st := h.stats(); st.Coalesced != 1 || st.CacheHits != 1 {
		t.Fatalf("stats after coalesce: coalesced=%d cache_hits=%d", st.Coalesced, st.CacheHits)
	}
}

// TestDeadline fails a job whose wall-clock deadline expires.
func TestDeadline(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	h.blockingExec() // never released: the deadline is the only way out

	sub := h.submit(`{"experiment": "E01", "deadline_s": 0.05}`)
	st := h.wait(sub.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline job: %+v", st)
	}
}

// TestDrain rejects new work during and after a drain.
func TestDrain(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	if !h.srv.Drain(time.Second) {
		t.Fatal("idle pool did not drain cleanly")
	}
	status, e := h.submitErr(`{"experiment": "E01"}`)
	if status != http.StatusServiceUnavailable || e.Code != ErrDraining {
		t.Fatalf("submit while draining: %d/%s", status, e.Code)
	}
	if st := h.stats(); !st.Draining {
		t.Fatal("stats do not report draining")
	}
}

// TestEventsStream replays a finished job's SSE history and
// terminates the stream at the terminal event.
func TestEventsStream(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	// E13 is event-driven: its sweep points surface as progress events.
	sub := h.submit(`{"experiment": "E13"}`)
	h.wait(sub.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, h.ts.URL+"/v1/jobs/"+sub.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The job is terminal, so the handler must close the stream by
	// itself after replaying history; reading to EOF must not hang.
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"event: queued", "event: started", "event: progress", "event: done"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("stream lacks %q:\n%s", want, body)
		}
	}
}

// TestHealthAndExperiments smoke-tests the discovery endpoints.
func TestHealthAndExperiments(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	code, body := h.get("/v1/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body = h.get("/v1/experiments")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"E01"`)) {
		t.Fatalf("experiments: %d %.200s", code, body)
	}
}

// TestQueueFull rejects submissions beyond the admission bound.
func TestQueueFull(t *testing.T) {
	h := newHarness(t, Options{Workers: 1, QueueDepth: 1})
	release := h.blockingExec()
	defer release()

	running := h.submit(`{"experiment": "E01"}`)
	h.waitState(running.ID, StateRunning)
	h.submit(`{"experiment": "E04"}`) // fills the queue
	status, e := h.submitErr(`{"experiment": "E12"}`)
	if status != http.StatusServiceUnavailable || e.Code != ErrQueueFull {
		t.Fatalf("overfull queue: %d/%s", status, e.Code)
	}
}

// TestRetention prunes terminal job records beyond the bound while
// the cache keeps serving the pruned jobs' results.
func TestRetention(t *testing.T) {
	h := newHarness(t, Options{Workers: 1, RetainJobs: 2})
	first := h.submit(`{"experiment": "E01"}`)
	h.wait(first.ID)
	for _, id := range []string{"E04", "E12"} {
		h.wait(h.submit(fmt.Sprintf(`{"experiment": %q}`, id)).ID)
	}
	if code, _ := h.get("/v1/jobs/" + first.ID); code != http.StatusNotFound {
		t.Fatalf("pruned job still resolves: %d", code)
	}
	resub := h.submit(`{"experiment": "E01"}`)
	if resub.State != StateDone || !resub.CacheHit {
		t.Fatalf("cache lost a pruned job's result: %+v", resub)
	}

	// The record table stays bounded however many jobs pass through:
	// never more than RetainJobs records beside the unfinished ones.
	for i := 0; i < 3*h.srv.opts.RetainJobs; i++ {
		h.wait(h.submit(fmt.Sprintf(`{"experiment": "E04", "seed": %d}`, i%2)).ID)
		h.srv.mu.Lock()
		order, jobs := len(h.srv.order), len(h.srv.jobs)
		h.srv.mu.Unlock()
		if order != jobs || order > h.srv.opts.RetainJobs {
			t.Fatalf("after %d more submits: %d ordered ids, %d records, RetainJobs %d",
				i+1, order, jobs, h.srv.opts.RetainJobs)
		}
	}
}

// TestRetentionKeepsRunningOldest: pruning takes terminal records
// only. A job still running when the bound is hit stays resolvable and
// first in the listing while the finished jobs submitted after it are
// pruned, oldest first.
func TestRetentionKeepsRunningOldest(t *testing.T) {
	h := newHarness(t, Options{Workers: 2, RetainJobs: 2})
	release := h.blockingExec()
	defer release()
	blocked, fast := h.srv.exec, execute
	h.srv.exec = func(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error) {
		if spec.Experiment == "E01" {
			return blocked(ctx, spec, progress)
		}
		return fast(ctx, spec, progress)
	}
	slow := h.submit(`{"experiment": "E01"}`)
	h.waitState(slow.ID, StateRunning)
	var done []string
	for seed := 0; seed < 3; seed++ {
		sub := h.submit(fmt.Sprintf(`{"experiment": "E04", "seed": %d}`, seed))
		h.wait(sub.ID)
		done = append(done, sub.ID)
	}
	if code, _ := h.get("/v1/jobs/" + slow.ID); code != http.StatusOK {
		t.Fatalf("running job was pruned: %d", code)
	}
	for _, id := range done[:2] {
		if code, _ := h.get("/v1/jobs/" + id); code != http.StatusNotFound {
			t.Fatalf("finished job %s survived pruning: %d", id, code)
		}
	}
	h.srv.mu.Lock()
	order := append([]string(nil), h.srv.order...)
	h.srv.mu.Unlock()
	if want := []string{slow.ID, done[2]}; !slices.Equal(order, want) {
		t.Fatalf("retained jobs %v, want %v", order, want)
	}
	release()
	h.wait(slow.ID)
}

// TestStatsCountsFollowRecords: /v1/stats counts the retained records
// by state without walking them, so at every step of a lifecycle —
// queued, running, done, failed, cancelled while queued, coalesced, a
// cache hit, and records pruned past RetainJobs — its counts must equal
// a walk of the records, with zero states absent.
func TestStatsCountsFollowRecords(t *testing.T) {
	h := newHarness(t, Options{Workers: 1, RetainJobs: 4})
	outcomes := map[uint64]chan error{}
	for seed := uint64(1); seed <= 5; seed++ {
		outcomes[seed] = make(chan error, 1)
	}
	h.srv.exec = func(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error) {
		key, err := spec.Key()
		if err != nil {
			return nil, err
		}
		select {
		case err := <-outcomes[spec.Seed]:
			if err != nil {
				return nil, err
			}
			return &Entry{Key: key, Result: []byte(`{"kind":"test"}`), Verified: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	spec := func(seed int) string { return fmt.Sprintf(`{"experiment": "E04", "seed": %d}`, seed) }
	check := func(step string, want map[State]int) {
		t.Helper()
		walked := map[State]int{}
		h.srv.mu.Lock()
		for _, id := range h.srv.order {
			walked[h.srv.jobs[id].status().State]++
		}
		h.srv.mu.Unlock()
		got := h.stats().Jobs
		if !maps.Equal(got, walked) || !maps.Equal(got, want) {
			t.Fatalf("%s: stats count %v, the records %v, want %v", step, got, walked, want)
		}
	}
	check("empty", map[State]int{})

	a := h.submit(spec(1))
	h.waitState(a.ID, StateRunning)
	check("running", map[State]int{StateRunning: 1})
	b := h.submit(spec(2))
	check("queued", map[State]int{StateRunning: 1, StateQueued: 1})
	coalesced := h.submit(spec(1))
	check("coalesced", map[State]int{StateRunning: 1, StateQueued: 2})

	if code, body := h.post("/v1/jobs/" + b.ID + "/cancel"); code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, body)
	}
	h.wait(b.ID)
	check("cancelled while queued", map[State]int{StateRunning: 1, StateQueued: 1, StateCancelled: 1})

	outcomes[1] <- nil
	h.wait(a.ID)
	if st := h.wait(coalesced.ID); st.State != StateDone || !st.CacheHit {
		t.Fatalf("coalesced job finished %+v", st)
	}
	check("done", map[State]int{StateDone: 2, StateCancelled: 1})

	d := h.submit(spec(3))
	h.waitState(d.ID, StateRunning)
	check("running again", map[State]int{StateRunning: 1, StateDone: 2, StateCancelled: 1})
	outcomes[3] <- errors.New("boom")
	if st := h.wait(d.ID); st.State != StateFailed {
		t.Fatalf("failing job finished %s", st.State)
	}
	check("failed", map[State]int{StateDone: 2, StateCancelled: 1, StateFailed: 1})

	// Four records retained: a cache hit prunes the oldest, a.
	if hit := h.submit(spec(1)); hit.State != StateDone || !hit.CacheHit {
		t.Fatalf("resubmission not a cache hit: %+v", hit)
	}
	check("cache hit, one pruned", map[State]int{StateDone: 2, StateCancelled: 1, StateFailed: 1})
	if code, _ := h.get("/v1/jobs/" + a.ID); code != http.StatusNotFound {
		t.Fatalf("oldest record survived pruning: %d", code)
	}

	// A running job is never pruned; the terminal records behind it go.
	e := h.submit(spec(4))
	h.waitState(e.ID, StateRunning)
	check("running, b pruned", map[State]int{StateRunning: 1, StateDone: 2, StateFailed: 1})
	f := h.submit(spec(5))
	check("queued, coalesced pruned", map[State]int{StateRunning: 1, StateQueued: 1, StateDone: 1, StateFailed: 1})
	outcomes[4] <- nil
	outcomes[5] <- nil
	h.wait(e.ID)
	h.wait(f.ID)
	check("drained", map[State]int{StateDone: 3, StateFailed: 1})
}

// post POSTs an empty body to path, returning status and body.
func (h *harness) post(path string) (int, []byte) {
	h.t.Helper()
	resp, err := http.Post(h.ts.URL+path, "", nil)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// BenchmarkStatsHandler times GET /v1/stats in the handler with
// RetainJobs finished records retained (the default bound, 4096).
func BenchmarkStatsHandler(b *testing.B) {
	srv := New(Options{Workers: 1})
	defer srv.Drain(time.Second)
	srv.mu.Lock()
	for i := 0; i < srv.opts.RetainJobs; i++ {
		j := newJob(fmt.Sprintf("j-%06d", i), "k", &JobSpec{Experiment: "E04"})
		srv.register(j)
		j.finish(StateDone, &Entry{Verified: true}, "", false)
	}
	srv.mu.Unlock()
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}
