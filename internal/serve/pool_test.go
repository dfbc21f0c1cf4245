package serve

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainHardStopSkipsQueuedJobs is the regression test for the
// drain hard-stop path: once the drain timeout cancels the base
// context, still-queued jobs must finish cancelled without ever
// executing. (Workers used to keep draining the queue and running
// every job with the already-dead context.)
func TestDrainHardStopSkipsQueuedJobs(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	var execs atomic.Int32
	h.srv.exec = func(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error) {
		execs.Add(1)
		<-ctx.Done() // park until the hard stop cancels the base context
		return nil, ctx.Err()
	}

	running := h.submit(`{"experiment": "E01"}`)
	h.waitState(running.ID, StateRunning)
	queued := h.submit(`{"experiment": "E04"}`)
	if st := h.status(queued.ID); st.State != StateQueued {
		t.Fatalf("second job is %s with one busy worker", st.State)
	}

	if h.srv.Drain(50 * time.Millisecond) {
		t.Fatal("drain reported clean with a parked worker")
	}
	// Drain waited for the workers, so both jobs are terminal now.
	if st := h.status(running.ID); st.State != StateCancelled {
		t.Fatalf("hard-stopped running job finished %s", st.State)
	}
	st := h.status(queued.ID)
	if st.State != StateCancelled || !st.StartedAt.IsZero() {
		t.Fatalf("queued job after hard stop: %+v", st)
	}
	if !strings.Contains(st.Error, "drained") {
		t.Fatalf("queued job error %q does not mention the drain", st.Error)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d jobs executed after the hard stop, want only the parked one", n)
	}
}
