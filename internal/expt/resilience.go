package expt

import (
	"context"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/resil"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E13/E14: resilience at scale. The paper's Cluster-Booster argument
// only pays off at thousands of booster nodes, and at that node count
// failures stop being exceptional — the DEEP-ER follow-on project was
// dedicated entirely to resiliency and multi-level checkpointing. E13
// measures how job efficiency degrades with per-node MTBF as the
// booster grows from 64 to 4096 nodes under static vs dynamic
// assignment; E14 sweeps the checkpoint interval around the Daly
// optimum on a failure-prone booster.

// e13Sizes and e13MTBFs are the sweep axes: machine scale and per-node
// MTBF in seconds (0 means no failures).
var (
	e13Sizes = []int{64, 512, 4096}
	e13MTBFs = []float64{0, 16000, 4000, 1000}
)

// e13Workload builds a job mix whose total work scales with the
// machine so the failure-free makespan is size-independent: demand is
// Zipf-skewed in units of size/64 boosters across 16 owner groups.
func e13Workload(size, jobCount int, seed uint64) []*resource.Job {
	r := rng.New(seed)
	zipf := rng.NewZipf(r, 16, 1.2)
	unit := size / 64
	jobs := make([]*resource.Job, jobCount)
	for i := range jobs {
		demand := unit << uint(zipf.Next()%5) // unit .. 16*unit boosters
		jobs[i] = &resource.Job{
			ID:       i,
			Arrival:  sim.Time(i) * 250 * sim.Millisecond,
			Boosters: demand,
			Duration: sim.Time(r.Intn(6000)+2000) * sim.Millisecond,
			Owner:    r.Intn(16),
		}
	}
	return jobs
}

// e13Ckpt is the checkpoint model every E13 job runs under:
// buddy-replicated local-SSD checkpoints every 4 s; the 30 W I/O
// draw only matters to metered runs.
func e13Ckpt() *resil.Checkpoint {
	return &resil.Checkpoint{
		Interval:     4 * sim.Second,
		LocalWrite:   250 * sim.Millisecond,
		LocalRestore: 250 * sim.Millisecond,
		Buddy:        true,
		IOWatts:      30,
	}
}

// e13Run schedules the workload on a size-node booster with the given
// per-node MTBF (0 = perfect machine) and returns the scheduler, the
// useful nominal work in node-seconds and the energy recorder (nil
// unmetered). The cfg/label pair routes the run into the configured
// observability hub (inert when none is set).
func e13Run(cfg *Config, label string, size, jobCount int, mode resource.AssignMode, mtbf float64, seed uint64, meter bool) (*resource.Scheduler, float64, *energy.Recorder) {
	eng := sim.New()
	run := cfg.observe(label, eng)
	defer run.Close()
	pool := resource.NewPool(size)
	pool.PartitionOwners(size / 16)
	s := resource.NewScheduler(eng, pool, mode)
	s.Backfill = mode == resource.Dynamic
	s.Ckpt = e13Ckpt()
	s.Observe(run)
	var rec *energy.Recorder
	if meter {
		rec = s.Meter(machine.KNC, jobCount)
	}
	work := 0.0
	for _, j := range e13Workload(size, jobCount, seed) {
		work += float64(j.Boosters) * j.Duration.Seconds()
		s.Submit(j)
	}
	if mtbf > 0 {
		s.Inject(400*sim.Second, resil.Faults{
			TTF: resil.Exponential{M: mtbf},
			TTR: resil.Fixed{D: 20},
		}, seed+99)
	}
	eng.Run()
	return s, work, rec
}

// e13Eff is useful nominal work over delivered capacity.
func e13Eff(s *resource.Scheduler, work float64) float64 {
	m := s.Makespan()
	if m == 0 {
		return 0
	}
	return work / (float64(s.Pool.Size()) * m.Seconds())
}

func runE13(ctx context.Context, cfg *Config) (*stats.Table, error) {
	jobs := cfg.scale(80)
	tab := stats.NewTable(
		"E13 Job efficiency vs node MTBF, 64-4096 boosters, static vs dynamic",
		cfg.energyHeaders("size/mtbf", "boosters", "node_mtbf_s", "eff_static", "eff_dynamic",
			"requeues_static", "requeues_dynamic")...)
	for _, size := range e13Sizes {
		for _, mtbf := range e13MTBFs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			label := "inf"
			if mtbf > 0 {
				label = fmt.Sprintf("%.0f", mtbf)
			}
			point := fmt.Sprintf("E13/%d/%s", size, label)
			st, workS, _ := e13Run(cfg, point+"/static", size, jobs, resource.Static, mtbf, cfg.seed(11), false)
			dy, workD, rec := e13Run(cfg, point+"/dynamic", size, jobs, resource.Dynamic, mtbf, cfg.seed(11), cfg.energyOn())
			tab.AddRow(cfg.energyRow(
				[]any{fmt.Sprintf("%d/%s", size, label), size, label,
					e13Eff(st, workS), e13Eff(dy, workD), int(st.Requeued), int(dy.Requeued)},
				rec.Joules(), rec.GFlopsPerWatt())...)
		}
	}
	tab.AddNote("%d jobs, Zipf demand in units of size/64 boosters; buddy-SSD checkpoints every 4 s; repair 20 s", jobs)
	tab.AddNote("expected shape: efficiency flat in MTBF at 64 nodes, collapsing at 4096 (same per-node MTBF)")
	tab.AddNote("expected shape: dynamic assignment degrades more gracefully than static under failures")
	if cfg.energyOn() {
		tab.AddNote("energy: dynamic run to its makespan — completed jobs credit nominal work, rework and checkpoint I/O (30 W) only burn; GFlop/W collapses with efficiency")
	}
	return tab, nil
}

// --- E14: checkpoint interval sweep vs the Daly optimum -------------

const (
	e14Nodes   = 48
	e14Work    = 60.0 // seconds of compute per job
	e14MTBF    = 25.0 // per-node MTBF, seconds
	e14Write   = 0.5  // LocalWrite; buddy doubles it to 1 s effective
	e14Restore = 0.5
)

// e14Ckpt builds the E14 checkpoint model for one sweep point — shared
// by the simulation and the analytic column so they cannot drift.
func e14Ckpt(interval float64) *resil.Checkpoint {
	return &resil.Checkpoint{
		Interval:     sim.FromSeconds(interval),
		LocalWrite:   sim.FromSeconds(e14Write),
		LocalRestore: sim.FromSeconds(e14Restore),
		Buddy:        true,
		IOWatts:      30,
	}
}

// e14Run completes 48 single-node jobs under exponential node failures
// with the given checkpoint interval (0 = no checkpointing) and
// returns the scheduler and the energy recorder (nil unmetered).
func e14Run(cfg *Config, label string, interval float64, seed uint64, meter bool) (*resource.Scheduler, *energy.Recorder) {
	eng := sim.New()
	run := cfg.observe(label, eng)
	defer run.Close()
	pool := resource.NewPool(e14Nodes)
	s := resource.NewScheduler(eng, pool, resource.Dynamic)
	s.Backfill = true
	s.Observe(run)
	if interval > 0 {
		s.Ckpt = e14Ckpt(interval)
	}
	var rec *energy.Recorder
	if meter {
		rec = s.Meter(machine.KNC, e14Nodes)
	}
	for i := 0; i < e14Nodes; i++ {
		s.Submit(&resource.Job{
			ID: i, Arrival: 0, Boosters: 1,
			Duration: sim.FromSeconds(e14Work),
		})
	}
	s.Inject(3000*sim.Second, resil.Faults{
		TTF: resil.Exponential{M: e14MTBF},
		TTR: resil.Fixed{D: 1},
	}, seed)
	eng.Run()
	return s, rec
}

// e14MeanWall returns the mean job completion wall time in seconds.
func e14MeanWall(s *resource.Scheduler) float64 {
	sum := 0.0
	for _, j := range s.Completed() {
		sum += (j.End - j.Start).Seconds()
	}
	return sum / float64(len(s.Completed()))
}

func runE14(ctx context.Context, cfg *Config) (*stats.Table, error) {
	delta := 2 * e14Write // buddy-replicated write cost
	daly := resil.DalyInterval(delta, e14MTBF)
	young := resil.YoungInterval(delta, e14MTBF)
	tab := stats.NewTable(
		"E14 Checkpoint interval sweep vs Daly optimum, 48 boosters, MTBF 25 s",
		cfg.energyHeaders("interval_s", "mean_wall_s", "efficiency", "requeues", "analytic_wall_s")...)
	sweep := []struct {
		label    string
		interval float64
	}{
		{"1.0", 1},
		{"2.5", 2.5},
		{fmt.Sprintf("daly=%.1f", daly), daly},
		{"16.0", 16},
		{"40.0", 40},
		{"none", 0},
	}
	for _, sw := range sweep {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, rec := e14Run(cfg, "E14/"+sw.label, sw.interval, cfg.seed(23), cfg.energyOn())
		wall := e14MeanWall(s)
		analytic := math.NaN()
		if sw.interval > 0 {
			analytic = e14Ckpt(sw.interval).ExpectedWallSeconds(e14Work, e14MTBF)
		}
		tab.AddRow(cfg.energyRow(
			[]any{sw.label, wall, e14Work / wall, int(s.Requeued), analytic},
			rec.Joules(), rec.GFlopsPerWatt())...)
	}
	tab.AddNote("48 single-node jobs of 60 s compute; exponential node MTBF 25 s, repair 1 s; buddy-SSD write 2x0.5 s")
	tab.AddNote("young interval %.1f s, daly interval %.1f s for delta=1 s", young, daly)
	tab.AddNote("expected shape: wall time minimised near the Daly interval; too-frequent pays overhead, too-rare pays rework, none pays full restarts")
	if cfg.energyOn() {
		tab.AddNote("energy: the interval sweep is U-shaped in joules too — rework and checkpoint I/O both burn watts")
	}
	return tab, nil
}

func init() {
	register(Experiment{
		ID:       "E13",
		Title:    "Resilience: efficiency vs MTBF at 64-4096 boosters",
		PaperRef: "section VII (DEEP-ER: resiliency at scale)",
		Run:      runE13,
	})
	register(Experiment{
		ID:       "E14",
		Title:    "Resilience: checkpoint interval sweep vs Daly optimum",
		PaperRef: "section VII (multi-level checkpointing)",
		Run:      runE14,
	})
}
