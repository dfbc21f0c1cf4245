// Command bench is the repository's performance benchmark: four
// long-running workloads over the simulator's public entry points,
// each measured from outside by timing calls into the layers.
//
//	go run ./bench                                   # gated run, all four workloads
//	go run ./bench --trace 1                         # traced run: per-layer metrics + Chrome traces
//	go run ./bench --workload torus_packet --seed 7  # one workload
//	go run ./bench --selfcheck 5                     # do two sets of runs of this tree agree?
//
// Each workload runs in a fresh process (without --workload the program
// re-executes itself once per workload), so set-up time and peak RSS
// are per workload. The last line a workload run prints is one JSON
// object {correct, attempted, failed, metrics}; BENCHMARK.json at the
// repository root names the metrics and their regression bounds. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

// workloads lists the benchmark's workloads in run order; BENCHMARK.json
// repeats the names with the reason each exists.
var workloads = []struct {
	name string
	new  func(seed uint64) workload
}{
	{"weakscale_k2", func(seed uint64) workload { return &weakscale{seed: seed} }},
	{"torus_packet", func(seed uint64) workload { return &torusPacket{seed: seed} }},
	{"mpi_halo", func(seed uint64) workload { return &mpiHalo{seed: seed} }},
	{"deepd_mix", func(seed uint64) workload { return &deepdMix{seed: seed} }},
}

func newWorkload(name string, seed uint64) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.new(seed), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// defaultSeconds is BENCHMARK.json's run_seconds. Do not shorten it:
// on a shared 2-vCPU host nothing under 30 s repeats within the bounds.
const defaultSeconds = 30

func main() {
	name := flag.String("workload", "", "run this one workload in this process (default: all four, one fresh process each)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics, Chrome trace under bench/out/); 0: gated run (end-to-end metrics)")
	jsonOnly := flag.Bool("json", false, "print only the JSON result line")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of N gated runs and compare their medians against the bounds")
	flag.Parse()

	var err error
	switch {
	case *selfcheck > 0:
		err = runSelfcheck(*selfcheck, *seed, *seconds)
	case *name == "":
		err = runAll(os.Args[1:])
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *jsonOnly)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload with the caller's
// flags, so each workload's set-up time and peak RSS are its own.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloads))
	}
	return nil
}

// metricValue and resultLine are the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload here and prints its metrics and result line.
func runOne(name string, seed uint64, seconds float64, trace, jsonOnly bool) error {
	r, err := runWorkload(name, seed, seconds, trace)
	if err != nil {
		return err
	}
	defs, values := endToEndMetrics, r.endToEnd()
	if trace {
		defs, values = perLayerMetrics, r.layers
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		// A layer this workload does not exercise reads 0.
		line.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	if !jsonOnly {
		r.print(defs, values)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", name, r.failed, r.attempted)
	}
	return nil
}

// print writes the human-readable report of a run.
func (r *runResult) print(defs []metricDef, values map[string]float64) {
	fmt.Printf("workload %s  seed=%d gomaxprocs=%d trace=%v\n", r.workload, r.seed, runtime.GOMAXPROCS(0), r.layers != nil)
	fmt.Printf("  measured %.1f s: ops_attempted %d, ops_failed %d; set-ups (s) %.3f\n",
		r.measured.Seconds(), r.attempted, r.failed, r.setups)
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			fmt.Printf("  %-28s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if r.layers == nil {
		// Context for the gated numbers; none of it is gated.
		fmt.Printf("  %-28s %14.4f ms\n", "host.wall_ms_p50", median(r.opMS))
		fmt.Printf("  %-28s %14.4f ms (%d ops, %d beyond)\n", "host.wall_ms_p90",
			percentile(r.opMS, 0.90), len(r.opMS), samplesBeyond(r.opMS, 0.90))
		fmt.Printf("  %-28s %14.4f 1/s\n", "host.ops_per_s_raw", float64(len(r.opMS))/r.measured.Seconds())
		fmt.Printf("  %-28s %14.4f frac\n", "host.steal_frac", r.host.stealFrac)
		fmt.Printf("  %-28s %14.4f ms\n", "host.cpu_ms_per_op", r.host.cpuMSPerOp)
		fmt.Printf("  %-28s %14.4f MiB\n", "host.alloc_mb_per_op", r.host.allocMiBPerOp)
	} else {
		fmt.Printf("  trace: %s\n", r.tracePath)
	}
}
