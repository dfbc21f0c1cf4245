package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck answers "would two sets of runs of the same code agree
// within the benchmark's own bounds?": it makes two interleaved sets
// (A B A B ...) of n gated runs of every workload, run i of both sets
// on seed+i, and compares the sets' medians metric by metric against
// the bounds in BENCHMARK.json.
func runSelfcheck(n int, seed uint64, seconds float64) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ set, workload, metric string }
	values := map[key][]float64{}
	for i := 0; i < n; i++ {
		for _, set := range []string{"A", "B"} {
			for _, w := range bf.Workloads {
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %s %s\n", i+1, n, set, w.Name)
				cmd := exec.Command(self, "-json", "-workload", w.Name,
					"-seed", strconv.FormatUint(seed+uint64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				var line resultLine
				if err := json.Unmarshal(bytes.TrimSpace(out), &line); err != nil {
					return fmt.Errorf("%s: result line: %w", w.Name, err)
				}
				for name, m := range line.Metrics {
					k := key{set, w.Name, name}
					values[k] = append(values[k], m.Value)
				}
			}
		}
	}

	fmt.Printf("selfcheck: 2 interleaved sets of %d runs, %.0f s each, seeds %d..%d\n", n, seconds, seed, seed+uint64(n)-1)
	fmt.Printf("%-13s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "worse", "bound", "")
	failed := 0
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			a := median(values[key{"A", w.Name, d.Name}])
			b := median(values[key{"B", w.Name, d.Name}])
			worse := worseBy(d.Better, a, b)
			verdict := "PASS"
			if worse > d.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-13s %-12s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs differ by more than their bound", failed)
	}
	return nil
}

// worseBy returns by what share of the first median the second is
// worse: positive when b is worse than a in the metric's direction.
func worseBy(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
