package serve

import (
	"context"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

// The job states. Queued and Running are live; the rest are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one progress event on a job's stream: lifecycle
// transitions plus one "progress" event per simulation run the job's
// experiment opens (sweep points, via the obs lane hook).
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	Data string    `json:"data,omitempty"`
}

// JobStatus is the wire form of a job's state — what GET
// /v1/jobs/{id} returns and what the submit response embeds.
type JobStatus struct {
	ID string `json:"id"`
	// Key is the spec's content address — the cache key.
	Key        string `json:"key"`
	State      State  `json:"state"`
	Experiment string `json:"experiment,omitempty"`
	Workload   string `json:"workload,omitempty"`
	// CacheHit marks a job served from the content-addressed cache
	// (or coalesced onto an identical in-flight job) without running
	// the simulation.
	CacheHit bool `json:"cache_hit"`
	// Verified is false when a finished workload failed its built-in
	// verification; experiments and unfinished jobs report true.
	Verified bool   `json:"verified"`
	Error    string `json:"error,omitempty"`
	// Events is the number of progress events emitted so far.
	Events      int       `json:"events"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// job is the server-side record of one submitted spec.
type job struct {
	id   string
	key  string
	spec *JobSpec

	mu        sync.Mutex
	state     State
	cacheHit  bool
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	entry     *Entry
	events    []Event
	subs      map[chan Event]struct{}
	// tally counts the job by state while the server retains its
	// record (nil before register and after pruning); the job moves
	// itself in it under mu on every transition.
	tally *stateTally

	// cancel aborts the job's run context (set while running); stop
	// requests cancellation for jobs that have no context yet (queued,
	// coalesced). done closes on reaching a terminal state.
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}
}

func newJob(id, key string, spec *JobSpec) *job {
	j := &job{
		id: id, key: key, spec: spec,
		state:     StateQueued,
		submitted: time.Now(),
		subs:      make(map[chan Event]struct{}),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	j.emit("queued", "")
	return j
}

// emit appends an event and fans it out to subscribers. Slow
// subscribers drop events rather than stall the simulation; the full
// sequence stays replayable from the event log.
func (j *job) emit(typ, data string) {
	j.mu.Lock()
	ev := Event{Seq: len(j.events) + 1, Time: time.Now(), Type: typ, Data: data}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe returns the event history so far plus a live channel; the
// returned cancel detaches the channel.
func (j *job) subscribe() (history []Event, ch chan Event, cancel func()) {
	ch = make(chan Event, 64)
	j.mu.Lock()
	history = append([]Event(nil), j.events...)
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return history, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// setRunning transitions queued -> running; false if the job is
// already terminal (e.g. cancelled while queued).
func (j *job) setRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.setState(StateRunning)
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	j.emit("started", "")
	return true
}

// finish transitions to a terminal state exactly once.
func (j *job) finish(state State, entry *Entry, errMsg string, cacheHit bool) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.setState(state)
	j.entry = entry
	j.err = errMsg
	j.cacheHit = cacheHit
	j.finished = time.Now()
	j.mu.Unlock()
	j.emit(string(state), errMsg)
	close(j.done)
}

// setState moves the job to state, and its count in the tally with
// it. The caller holds j.mu.
func (j *job) setState(state State) {
	if j.tally != nil {
		j.tally.move(j.state, state)
	}
	j.state = state
}

// retain enters the job in t under its current state.
func (j *job) retain(t *stateTally) {
	j.mu.Lock()
	j.tally = t
	t.move("", j.state)
	j.mu.Unlock()
}

// prune takes a terminal job out of its tally and reports true; a live
// job stays and reports false.
func (j *job) prune() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() {
		return false
	}
	if j.tally != nil {
		j.tally.move(j.state, "")
		j.tally = nil
	}
	return true
}

// outcome returns the job's state, error message and terminal entry.
func (j *job) outcome() (State, string, *Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.entry
}

// stateTally counts the job records a server retains, by state. It
// has its own lock, taken inside a job's, so a transition updates the
// counts without the server lock and /v1/stats reads them without
// walking the records.
type stateTally struct {
	mu sync.Mutex
	n  map[State]int
}

// move shifts one job from state from to state to; an empty state is
// outside the tally. A state whose count reaches zero is dropped.
func (t *stateTally) move(from, to State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from != "" {
		if t.n[from]--; t.n[from] == 0 {
			delete(t.n, from)
		}
	}
	if to != "" {
		if t.n == nil {
			t.n = make(map[State]int)
		}
		t.n[to]++
	}
}

// counts returns a copy of the non-zero counts.
func (t *stateTally) counts() map[State]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[State]int, len(t.n))
	for st, n := range t.n {
		out[st] = n
	}
	return out
}

// requestCancel asks the job to stop: running jobs get their context
// cancelled, queued/coalesced ones are finished as cancelled right
// away (the worker skips terminal jobs on dequeue). Returns false
// when the job is already terminal.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	state, cancel := j.state, j.cancel
	j.mu.Unlock()
	select {
	case <-j.stop:
	default:
		close(j.stop)
	}
	if cancel != nil {
		cancel()
	}
	if state == StateQueued {
		j.finish(StateCancelled, nil, "cancelled", false)
	}
	return true
}

// status snapshots the job.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Key: j.key, State: j.state,
		Experiment:  j.spec.Experiment,
		CacheHit:    j.cacheHit,
		Verified:    true,
		Error:       j.err,
		Events:      len(j.events),
		SubmittedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
	}
	if j.spec.Workload != nil {
		st.Workload = j.spec.Workload.Kind
	}
	if j.entry != nil {
		st.Verified = j.entry.Verified
	}
	return st
}
