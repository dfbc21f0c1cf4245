package obs

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/sim"
)

// ChromeEvent is one record of the Chrome trace-event format (the
// JSON-array flavour chrome://tracing and Perfetto load directly).
// Timestamps and durations are microseconds. This is the one encoder
// the repository uses: every trace exports through it, so all
// timelines view identically.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome encodes events as a single JSON array. A nil or empty
// slice writes "[]": an empty trace is still a valid trace.
func WriteChrome(w io.Writer, events []ChromeEvent) error {
	if events == nil {
		events = []ChromeEvent{}
	}
	return json.NewEncoder(w).Encode(events)
}

// micros converts virtual time to trace-event microseconds.
func micros(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// argsMap converts KV pairs into the trace-event args object.
func argsMap(args []KV) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		m[a.K] = a.V
	}
	return m
}

// ChromeEvents flattens the trace into encoder records: scopes sorted
// by name get pids 1..n, each preceded by process_name / thread_name
// metadata, with the scope's events in timestamp order. The result is
// a pure function of the per-scope event streams — two runs that
// emitted the same events export byte-identical traces.
func (t *Trace) ChromeEvents() []ChromeEvent {
	if t == nil {
		return nil
	}
	var out []ChromeEvent
	for i, s := range t.sorted() {
		pid := i + 1
		events, threads := s.snapshot()
		out = append(out, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": s.name},
		})
		tids := make([]int, 0, len(threads))
		for tid := range threads {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			out = append(out, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": threads[tid]},
			})
		}
		for _, ev := range events {
			ce := ChromeEvent{
				Name: ev.Name,
				Cat:  ev.Cat,
				Ph:   string(ev.Ph),
				Ts:   micros(ev.Ts),
				Pid:  pid,
				Tid:  ev.Tid,
				Args: argsMap(ev.Args),
			}
			if ev.Ph == 'X' {
				ce.Dur = micros(ev.Dur)
			}
			out = append(out, ce)
		}
	}
	return out
}

// WriteChrome exports the whole trace as Chrome trace-event JSON.
func (t *Trace) WriteChrome(w io.Writer) error {
	return WriteChrome(w, t.ChromeEvents())
}
