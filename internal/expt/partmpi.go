package expt

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// E17: the partitioned MPI runtime under load — a Global-MPI stencil
// iteration executed on the parallel discrete-event kernel, ranks
// pinned to K domain engines with cross-domain messages merged at
// conservative window barriers. Every run is checked against its plain
// (goroutine-per-rank) World twin: the outputs must be byte-identical
// and the modelled makespan must agree exactly, because the partitioned
// runtime reorders only wall-clock execution, never the virtual-clock
// arithmetic. The table is therefore byte-identical at every K; what K
// changes is wall time: `time deepbench -run E17 -domains K` measures it.
//
// Domains == 1 is the serialized baseline: the same coroutine runtime
// on a single domain engine, so a speedup curve over K measures the
// kernel's parallelism, not the difference between two runtimes.

// e17Points are the swept configurations: rank counts on a fixed
// 512x512 grid, ranks placed one per EXTOLL torus node.
var e17Points = []int{4, 8}

const (
	e17NX    = 512
	e17NY    = 512
	e17Iters = 40
)

// e17Run executes the stencil on the given rank count and returns the
// per-rank outputs, the modelled makespan and the total sent messages
// and bytes. run abstracts the two runtimes.
func e17Run(app *apps.Stencil2D, ranks int,
	run func(int, func(*mpi.Comm) error) (sim.Time, error)) ([][]float64, sim.Time, uint64, uint64, error) {
	outs := make([][]float64, ranks)
	traffic := make([]mpi.Stats, ranks)
	makespan, err := run(ranks, func(c *mpi.Comm) error {
		out, err := app.Run(c)
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		traffic[c.Rank()] = c.Stats()
		return nil
	})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	var msgs, bytes uint64
	for _, st := range traffic {
		msgs += st.SentMsgs
		bytes += st.SentBytes
	}
	return outs, makespan, msgs, bytes, nil
}

func runE17(ctx context.Context, cfg *Config) (*stats.Table, error) {
	K := cfg.domains()
	iters := cfg.scale(e17Iters)
	tab := stats.NewTable(
		"E17 Partitioned Global-MPI: stencil ranks on K domain engines",
		cfg.energyHeaders("ranks", "grid", "iters", "model_ms", "msgs", "twin")...)
	var kexec, kwin, kblocked, kcross, kwide uint64
	for _, ranks := range e17Points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// One rank per torus node; 2x2x2 covers the largest point.
		tr := mpi.NewFabricTransport(topology.NewTorus3D(2, 2, 2), fabric.Extoll)
		app := &apps.Stencil2D{NX: e17NX, NY: e17NY, Iters: iters}

		refOuts, refSpan, _, _, err := e17Run(app, ranks, mpi.NewWorld(tr).Run)
		if err != nil {
			return nil, fmt.Errorf("expt: E17 plain world: %w", err)
		}
		pw, err := mpi.NewPartitionedWorld(tr, K)
		if err != nil {
			return nil, fmt.Errorf("expt: E17: %w", err)
		}
		if mw := cfg.maxWindow(); mw > 1 {
			pw.SetMaxWindow(mw)
		}
		outs, span, msgs, bytes, err := e17Run(app, ranks, pw.Run)
		if err != nil {
			return nil, fmt.Errorf("expt: E17 partitioned K=%d: %w", K, err)
		}

		twin := span == refSpan
		if twin {
			for r := range outs {
				if len(outs[r]) != len(refOuts[r]) {
					twin = false
					break
				}
				for i := range outs[r] {
					if outs[r][i] != refOuts[r][i] {
						twin = false
						break
					}
				}
				if !twin {
					break
				}
			}
		}

		ks := pw.KernelStats()
		kexec += ks.Agg.Executed
		kwin += ks.Windows
		kcross += ks.CrossEvents
		kwide += ks.WideWindows
		for _, ds := range ks.PerDomain {
			kblocked += ds.BlockedWindows
		}

		// Energy model (K-invariant, like every other cell): rank-hosting
		// KNC nodes at peak draw over the modelled makespan plus per-byte
		// EXTOLL transfer energy at the 2x2x2 torus's mean route length.
		var joules, gfw float64
		if cfg.energyOn() {
			nodesJ := float64(ranks) * machine.KNC.PeakWatts * span.Seconds()
			fabricJ := float64(bytes) * fabric.ExtollEnergy.PerByteJ * 1.5
			joules = nodesJ + fabricJ
			flops := 4 * float64((e17NX-2)*(e17NY-2)) * float64(iters)
			gfw = gflopsPerWatt(flops, joules)
		}
		tab.AddRow(cfg.energyRow([]any{ranks, fmt.Sprintf("%dx%d", e17NX, e17NY), iters,
			float64(span) / float64(sim.Millisecond), msgs, twin},
			joules, gfw)...)
	}
	tab.AddNote("twin: partitioned outputs and modelled makespan are identical to the plain goroutine-per-rank world")
	tab.AddNote("the table is byte-identical at every K; wall time is what K buys (time deepbench -run E17 -domains K)")
	tab.SetSummary("domains", float64(K))
	tab.SetSummary("kernel_windows", float64(kwin))
	tab.SetSummary("kernel_executed", float64(kexec))
	tab.SetSummary("kernel_blocked_windows", float64(kblocked))
	tab.SetSummary("kernel_cross_events", float64(kcross))
	if mw := cfg.maxWindow(); mw > 1 {
		tab.SetSummary("kernel_max_window", float64(mw))
		tab.SetSummary("kernel_wide_windows", float64(kwide))
	}
	return tab, nil
}

func init() {
	register(Experiment{
		ID:       "E17",
		Title:    "Partitioned Global-MPI runtime (stencil on K domains)",
		PaperRef: "slides 24-29 (Global MPI) under the parallel kernel",
		Run:      runE17,
	})
}
