package expt

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/fabric"
	"repro/internal/stats"
)

// TestE15SweepSelection pins the edge-list policy: the default sweep
// stops at the sequential ceiling, MaxNodes extends it, and the
// million-node point is refused without the partitioned kernel.
func TestE15SweepSelection(t *testing.T) {
	def, err := e15Sweep(defaultConfig())
	if err != nil || !reflect.DeepEqual(def, []int{10, 16, 25, 40, 47}) {
		t.Fatalf("default sweep = %v, %v", def, err)
	}
	small, err := e15Sweep(&Config{Scale: 1, MaxNodes: 5000})
	if err != nil || !reflect.DeepEqual(small, []int{10, 16}) {
		t.Fatalf("MaxNodes 5000 sweep = %v, %v", small, err)
	}
	if _, err := e15Sweep(&Config{Scale: 1, MaxNodes: 1_000_000}); err == nil {
		t.Fatal("million-node point accepted without the parallel kernel")
	}
	big, err := e15Sweep(&Config{Scale: 1, MaxNodes: 1_000_000, Domains: 4})
	if err != nil || !reflect.DeepEqual(big, []int{10, 16, 25, 40, 47, 100}) {
		t.Fatalf("million-node sweep = %v, %v", big, err)
	}
}

// TestE15AdaptiveReducesWindows is the adaptive-window payoff on the
// sparse-cross E15 sweep (every phase is shard-local, so windows close
// quiet and the deadline widens to the cap): the kernel must finish in
// at most half the fixed-lookahead window count.
func TestE15AdaptiveReducesWindows(t *testing.T) {
	e, _ := Get("E15")
	run := func(mw int) *stats.Table {
		tab, err := e.Run(context.Background(),
			&Config{Scale: 1, Domains: 2, MaxWindow: mw, MaxNodes: 5000})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	fixed, adaptive := run(0), run(8)
	fw, aw := fixed.Summary["kernel_windows"], adaptive.Summary["kernel_windows"]
	if fw <= 0 || aw <= 0 {
		t.Fatalf("kernel window counters missing: fixed %v adaptive %v", fw, aw)
	}
	if aw*2 > fw {
		t.Fatalf("adaptive windows %v not at least 2x below fixed %v", aw, fw)
	}
	if adaptive.Summary["kernel_wide_windows"] <= 0 {
		t.Fatalf("adaptive run reports no widened windows: %v", adaptive.Summary)
	}
	if adaptive.Summary["kernel_max_window"] != 8 {
		t.Fatalf("summary kernel_max_window = %v, want 8", adaptive.Summary["kernel_max_window"])
	}
}

// TestEveryExperimentDomainsStable is the K-invariance table: each
// input renders byte-identical tables when run twice at a fixed K and
// at every K against its K=1 table. Every registered experiment is an
// input at K=3 (those without a spatial partition ignore Domains); E15
// is one more per fidelity and window policy at K=2, 4 and 6 —
// conservative windows, cross-slab phase barriers and adaptive
// widening may not move a single virtual timestamp.
func TestEveryExperimentDomainsStable(t *testing.T) {
	type input struct {
		name string
		e    Experiment
		cfg  Config // Domains is set per run
		ks   []int
	}
	var inputs []input
	for _, e := range All() {
		inputs = append(inputs, input{e.ID, e, Config{Scale: 1, MaxNodes: 5000}, []int{3}})
	}
	e15, _ := Get("E15")
	limit := 5000
	if !testing.Short() {
		limit = 20000 // adds the 25^3 point
	}
	for _, fid := range []fabric.Fidelity{fabric.FidelityFlow, fabric.FidelityPacket} {
		for _, mw := range []int{0, 8} {
			inputs = append(inputs, input{fmt.Sprintf("E15-%v-maxwindow%d", fid, mw), e15,
				Config{Scale: 1, MaxNodes: limit, Fidelity: fid, MaxWindow: mw}, []int{2, 4, 6}})
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			at := func(k int) []byte {
				cfg := in.cfg
				cfg.Domains = k
				return renderWith(t, in.e, &cfg)
			}
			seq := at(1)
			for _, k := range in.ks {
				a := at(k)
				if !bytes.Equal(a, at(k)) {
					t.Fatalf("not deterministic at fixed K=%d", k)
				}
				if !bytes.Equal(a, seq) {
					t.Fatalf("K=%d diverges from K=1:\n--- K=1 ---\n%s\n--- K=%d ---\n%s", k, seq, k, a)
				}
			}
		})
	}
	// Energy totals are summed shard by shard, so the joules column is
	// exact per fixed K and equal across K to floating-point noise.
	t.Run("E15-energy", func(t *testing.T) {
		t.Parallel()
		run := func(k int) *stats.Table {
			tab, err := e15.Run(context.Background(), &Config{Scale: 1, Domains: k, MaxNodes: 5000, Energy: true})
			if err != nil {
				t.Fatal(err)
			}
			return tab
		}
		seq := run(1)
		for _, k := range []int{2, 4} {
			par := run(k)
			if !reflect.DeepEqual(par.Rows, run(k).Rows) {
				t.Fatalf("K=%d energy rows not deterministic", k)
			}
			for i, row := range seq.Rows {
				if !reflect.DeepEqual(row[:7], par.Rows[i][:7]) {
					t.Fatalf("K=%d row %d timing cells diverge:\nK=1 %v\nK=%d %v", k, i, row, k, par.Rows[i])
				}
				sj, err1 := strconv.ParseFloat(row[7], 64)
				pj, err2 := strconv.ParseFloat(par.Rows[i][7], 64)
				if err1 != nil || err2 != nil || math.Abs(sj-pj) > 1e-6*math.Max(sj, 1) {
					t.Fatalf("K=%d row %d joules %q vs K=1 %q beyond float noise", k, i, par.Rows[i][7], row[7])
				}
			}
		}
	})
}

// TestE15ParallelKernelCounters checks the partitioned run exposes
// coherent machine-readable kernel totals in the table summary.
func TestE15ParallelKernelCounters(t *testing.T) {
	e, _ := Get("E15")
	tab, err := e.Run(context.Background(), &Config{Scale: 1, Domains: 2, MaxNodes: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Summary["domains"] != 2 {
		t.Fatalf("summary domains = %v, want 2", tab.Summary["domains"])
	}
	if tab.Summary["kernel_windows"] <= 0 || tab.Summary["kernel_executed"] <= 0 {
		t.Fatalf("kernel counters missing from summary: %v", tab.Summary)
	}
}
