package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one interval the harness timed around its own call into a
// layer. Spans are pointer-free so a traced torus op (40k of them) is
// cheap for the collector to skip.
type span struct {
	name       uint16 // index into tracer.names
	parent     int32  // the span that caused this one; -1 for an op root
	op         int32  // shared by every span of one op
	start, end int64  // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	names []string
	spans []span
	ops   int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// intern returns the id of a span name; hot paths intern once.
func (t *tracer) intern(name string) uint16 {
	for i, n := range t.names {
		if n == name {
			return uint16(i)
		}
	}
	t.names = append(t.names, name)
	return uint16(len(t.names) - 1)
}

// begin opens a span under parent (-1 opens the root of a new op).
func (t *tracer) begin(name uint16, parent int32) int32 {
	op := t.ops
	if parent < 0 {
		t.ops++
	} else {
		op = t.spans[parent].op
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op,
		start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.epoch)) }

// open and shut are begin-by-name and end that do nothing on a nil
// tracer, so an op that is only instrumented (not twinned) has one
// code path for its plain and its traced form.
func (t *tracer) open(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.begin(t.intern(name), parent)
}

func (t *tracer) shut(i int32) {
	if t != nil {
		t.end(i)
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children may overlap each other
// and may stick out of the parent; covered time is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	covered := make([]int64, len(spans))
	frontier := make([]int64, len(spans)) // end of the union so far, per parent
	for i, s := range spans {
		frontier[i] = s.start
	}
	for _, i := range order {
		s := spans[i]
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		from, to := max(s.start, frontier[s.parent]), min(s.end, p.end)
		if to > from {
			covered[s.parent] += to - from
			frontier[s.parent] = to
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered[i]
	}
	return self
}

// perOp sums vals (one per span: durations or self times, in ns) over
// the spans carrying one of the names, op by op, and returns
// milliseconds in op order.
func (t *tracer) perOp(vals []int64, names ...string) []float64 {
	want := make(map[uint16]bool, len(names))
	for _, n := range names {
		want[t.intern(n)] = true
	}
	out := make([]float64, t.ops)
	for i, s := range t.spans {
		if want[s.name] {
			out[s.op] += float64(vals[i]) / 1e6
		}
	}
	return out
}

// durations returns the duration in ns of every span.
func (t *tracer) durations() []int64 {
	d := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d[i] = s.end - s.start
	}
	return d
}

// each returns the duration in ms of every span named name.
func (t *tracer) each(name string) []float64 {
	id := t.intern(name)
	var out []float64
	for _, s := range t.spans {
		if s.name == id {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// fullDetailOps is how many ops keep every span in the trace file;
// later ops keep the op root and its direct children, which bounds the
// file at a few MB where a torus op alone records 40k leaf spans.
// Metrics always use every span in memory.
const fullDetailOps = 2

// chromeEvents converts the spans to the repo's Chrome trace form.
func (t *tracer) chromeEvents(process string) []obs.ChromeEvent {
	events := []obs.ChromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": process}}}
	depth := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		if depth[i] > 1 && s.op >= fullDetailOps {
			continue
		}
		name := t.names[s.name]
		cat, _, _ := strings.Cut(name, ".")
		events = append(events, obs.ChromeEvent{
			Name: name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "op": s.op},
		})
	}
	return events
}

// writeTrace writes the spans as Chrome trace JSON under bench/out/.
func (t *tracer) writeTrace(workload string) (string, error) {
	path := filepath.Join(outDir(), "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChrome(f, t.chromeEvents("bench "+workload)); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
