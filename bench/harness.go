package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package variables are
// initialised before main runs.
var processStart = time.Now()

// workload is one closed-loop, single-client benchmark workload. The
// harness owns timing; the workload owns inputs, state and checking.
type workload interface {
	// setUp builds the workload's state from scratch (machine, server,
	// store, reference outputs) and runs its warm-up ops. The gated run
	// calls it setUpRounds times and keeps the last.
	setUp() error
	// tearDown releases what the last setUp built.
	tearDown()
	// op runs one operation and verifies its output. With a nil tracer
	// it is the plain SDK call the end-to-end metrics time; with a
	// tracer it is the span-instrumented form of the same work (a twin
	// built from public layer functions where the SDK call is opaque).
	op(t *tracer) error
	// layers runs the workload's layer probes within budget and derives
	// its per-layer metrics from the traced block's spans.
	layers(b *tracedBlock, budget time.Duration) (map[string]float64, error)
}

// tracedBlock is what a workload's layers method reads.
type tracedBlock struct {
	t        *tracer
	self     []int64 // self time per span, ns
	plainP50 float64 // median ms of the untraced ops of the same run
}

// setUpRounds is how many times the gated run sets up; setup_s is the
// median, so one disturbed set-up does not decide the metric.
const setUpRounds = 3

// Shares of -seconds a traced run gives its three blocks: plain ops
// (host.* and the overhead base), traced ops (spans), layer probes.
const (
	tracePlainShare  = 0.30
	traceTracedShare = 0.30
	traceProbeShare  = 0.30
)

// runResult is everything one workload run measured.
type runResult struct {
	workload   string
	seed       uint64
	setups     []float64 // seconds, one per set-up round
	opMS       []float64 // wall ms of each successful plain op
	attempted  int
	failed     int
	measured   time.Duration
	host       hostDelta
	peakRSSMiB float64
	layers     map[string]float64 // traced run only
	tracePath  string
}

// timeOps runs w.op in a closed loop until d has elapsed and returns
// the wall ms of every successful op. A failed op is counted, reported
// on stderr and never timed.
func timeOps(w workload, t *tracer, d time.Duration, r *runResult) []float64 {
	var ms []float64
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		err := w.op(t)
		el := time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "bench: %s op %d failed: %v\n", r.workload, r.attempted, err)
			continue
		}
		ms = append(ms, float64(el)/1e6)
	}
	return ms
}

// runWorkload runs one workload in this process: set-up, then either
// the gated measured phase or the traced blocks.
func runWorkload(name string, seed uint64, seconds float64, trace bool) (*runResult, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	r := &runResult{workload: name, seed: seed}
	rounds := setUpRounds
	if trace {
		rounds = 1 // setup_s is not a traced-run metric
	}
	from := processStart
	for i := 0; i < rounds; i++ {
		if i > 0 {
			w.tearDown()
			from = time.Now()
		}
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		r.setups = append(r.setups, time.Since(from).Seconds())
	}
	defer w.tearDown()

	total := time.Duration(seconds * float64(time.Second))
	plain := total
	if trace {
		plain = time.Duration(tracePlainShare * float64(total))
	}
	before := snapHost()
	t0 := time.Now()
	r.opMS = timeOps(w, nil, plain, r)
	r.measured = time.Since(t0)
	r.host = snapHost().since(before, len(r.opMS))
	if len(r.opMS) == 0 {
		return r, fmt.Errorf("%s: no op succeeded", name)
	}

	if trace {
		t := newTracer()
		tracedMS := timeOps(w, t, time.Duration(traceTracedShare*float64(total)), r)
		if len(tracedMS) == 0 || r.failed > 0 {
			return r, fmt.Errorf("%s: traced ops failed", name)
		}
		b := &tracedBlock{t: t, self: selfTimes(t.spans), plainP50: median(r.opMS)}
		r.layers, err = w.layers(b, time.Duration(traceProbeShare*float64(total)))
		if err != nil {
			return r, fmt.Errorf("%s layers: %w", name, err)
		}
		r.layers["host.tracing_overhead_frac"] = median(tracedMS)/b.plainP50 - 1
		r.hostLayers()
		if r.tracePath, err = t.writeTrace(name); err != nil {
			return r, err
		}
	}
	r.peakRSSMiB, err = peakRSSMiB()
	return r, err
}

// hostLayers fills the host.* per-layer metrics from the plain block.
func (r *runResult) hostLayers() {
	r.layers["host.allocs_per_op"] = r.host.allocsPerOp
	r.layers["host.alloc_mb_per_op"] = r.host.allocMiBPerOp
	r.layers["host.gc_cycles_per_op"] = r.host.gcPerOp
	r.layers["host.cpu_ms_per_op"] = r.host.cpuMSPerOp
	r.layers["host.steal_frac"] = r.host.stealFrac
	r.layers["host.wall_ms_p50"] = median(r.opMS)
	r.layers["host.wall_ms_p90"] = percentile(r.opMS, 0.90)
	r.layers["host.ops_per_s_raw"] = float64(len(r.opMS)) / r.measured.Seconds()
	r.layers["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}

// endToEnd returns the four gated metrics of a run.
func (r *runResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":     median(r.setups),
		"wall_ms_p25": percentile(r.opMS, 0.25),
		"ops_per_s":   1000 / fastHalfMean(r.opMS),
		"peak_rss_mb": r.peakRSSMiB,
	}
}

// hostSnap is a point reading of the process's and the host's
// cumulative counters.
type hostSnap struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	cpu                 time.Duration // user+system of this process
	steal, jiffies      uint64        // /proc/stat, all CPUs
}

// hostDelta is the difference of two snapshots, per op where that
// makes sense.
type hostDelta struct {
	allocsPerOp, allocMiBPerOp, gcPerOp, cpuMSPerOp, stealFrac float64
}

func snapHost() hostSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := hostSnap{mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcCycles: m.NumGC}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.steal, s.jiffies = procStat()
	return s
}

func (s hostSnap) since(before hostSnap, ops int) hostDelta {
	n := float64(max(ops, 1))
	d := hostDelta{
		allocsPerOp:   float64(s.mallocs-before.mallocs) / n,
		allocMiBPerOp: float64(s.allocBytes-before.allocBytes) / (1 << 20) / n,
		gcPerOp:       float64(s.gcCycles-before.gcCycles) / n,
		cpuMSPerOp:    float64(s.cpu-before.cpu) / 1e6 / n,
	}
	if dj := s.jiffies - before.jiffies; dj > 0 {
		d.stealFrac = float64(s.steal-before.steal) / float64(dj)
	}
	return d
}

// procStat reads the aggregate cpu line of /proc/stat: steal jiffies
// and the sum of all fields. Zeroes where the file is missing.
func procStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// repoRoot finds the checkout root (the directory holding go.mod) from
// the working directory: the root itself under `go run ./bench`, bench/
// under `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// outDir is bench/out/, where traces and temporary stores live: inside
// the checkout, git-ignored.
func outDir() string {
	root, err := repoRoot()
	if err != nil {
		root = "."
	}
	dir := filepath.Join(root, "bench", "out")
	os.MkdirAll(dir, 0o755) //nolint:errcheck // the create that follows reports it
	return dir
}
