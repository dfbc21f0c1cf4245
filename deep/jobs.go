package deep

import (
	"context"
	"fmt"

	"repro/internal/cbp"
	"repro/internal/energy"
	"repro/internal/resil"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Job is one booster allocation request for the ScheduledJobs
// workload. Times are in seconds of virtual time.
type Job struct {
	ID       int     `json:"id"`
	Arrival  float64 `json:"arrival_s"`
	Duration float64 `json:"duration_s"`
	// Boosters is the number of booster nodes the job needs.
	Boosters int `json:"boosters"`
	// Owner is the cluster node that owns the job (static assignment
	// binds it to the owner's boosters).
	Owner int `json:"owner"`
}

// Checkpointing configures multi-level checkpoint/restart for
// scheduled jobs. Times are in seconds. The JSON tags are its form in
// a WorkloadSpec.
type Checkpointing struct {
	// Interval between checkpoints; zero disables checkpointing.
	Interval float64 `json:"interval_s,omitempty"`
	// Write and Restore are the local-SSD costs.
	Write   float64 `json:"write_s,omitempty"`
	Restore float64 `json:"restore_s,omitempty"`
	// Buddy replicates each checkpoint to a partner node (doubling the
	// effective write cost, surviving single-node loss).
	Buddy bool `json:"buddy,omitempty"`
	// IOWatts is the extra per-node draw while checkpoint/restore I/O
	// is in flight; it only matters on energy-metered machines.
	IOWatts float64 `json:"io_watts,omitempty"`
}

// model returns the checkpoint model a run builds from c: nil when c
// is nil or its Interval disables checkpointing.
func (c *Checkpointing) model() *resil.Checkpoint {
	if c == nil || c.Interval <= 0 {
		return nil
	}
	return &resil.Checkpoint{
		Interval:     sim.FromSeconds(c.Interval),
		LocalWrite:   sim.FromSeconds(c.Write),
		LocalRestore: sim.FromSeconds(c.Restore),
		Buddy:        c.Buddy,
		IOWatts:      c.IOWatts,
	}
}

// Validate reports why the checkpoint model a run would build from c
// is unusable (an interval that rounds to zero, a negative cost, local
// checkpoints without Buddy that cannot survive a node failure), or
// nil when it is sound or checkpointing is disabled.
func (c *Checkpointing) Validate() error {
	if r := c.model(); r != nil {
		return r.Validate()
	}
	return nil
}

// DalyInterval returns Daly's higher-order optimum checkpoint
// interval in seconds for the given effective write cost and MTBF.
func DalyInterval(writeSeconds, mtbfSeconds float64) float64 {
	return resil.DalyInterval(writeSeconds, mtbfSeconds)
}

// YoungInterval returns Young's first-order optimum checkpoint
// interval in seconds.
func YoungInterval(writeSeconds, mtbfSeconds float64) float64 {
	return resil.YoungInterval(writeSeconds, mtbfSeconds)
}

// ScheduledJobs schedules a job mix on the machine's booster pool:
// the resource-management story of the paper (static host-owned
// accelerators vs the dynamically assignable booster pool), run under
// the machine's fault plan when one is configured.
type ScheduledJobs struct {
	// Jobs is the mix to schedule.
	Jobs []Job
	// Dynamic draws boosters from the shared pool (with backfill);
	// false models static host-owns-its-accelerators assignment.
	Dynamic bool
	// Contiguous uses topology-aware sub-torus allocation; it needs a
	// booster count with an exact 3D-torus shape (WithBoosterTorus,
	// or a node count the auto shape covers exactly, like 27 or 64).
	Contiguous bool
	// BoostersPerOwner partitions the pool into ownership groups of
	// this size; zero leaves the pool unpartitioned.
	BoostersPerOwner int
	// Ckpt enables checkpoint/restart; nil jobs restart from scratch.
	Ckpt *Checkpointing
}

// Name implements Workload.
func (ScheduledJobs) Name() string { return "scheduled-jobs" }

// Run implements Workload.
func (s ScheduledJobs) Run(ctx context.Context, env *Env) (*Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(s.Jobs) == 0 {
		return nil, fmt.Errorf("deep: scheduled-jobs workload has no jobs")
	}
	if err := s.Ckpt.Validate(); err != nil {
		return nil, fmt.Errorf("deep: %w", err)
	}
	m := env.Machine
	eng := sim.New()
	var pool *resource.Pool
	tx, ty, tz := m.torusX, m.torusY, m.torusZ
	if tx == 0 {
		// Auto-shaped machines model a near-cubic booster torus; use
		// it for the pool too when it fits the node count exactly.
		if x, y, z := cbp.TorusShape(m.boosterNodes); x*y*z == m.boosterNodes {
			tx, ty, tz = x, y, z
		}
	}
	if tx > 0 {
		pool = resource.NewTorusPool(topology.NewTorus3D(tx, ty, tz))
	} else {
		if s.Contiguous {
			return nil, fmt.Errorf("deep: contiguous allocation needs a booster count with an exact 3D-torus shape (use WithBoosterTorus)")
		}
		pool = resource.NewPool(m.boosterNodes)
	}
	if s.BoostersPerOwner > 0 {
		pool.PartitionOwners(s.BoostersPerOwner)
	}
	mode := resource.Static
	if s.Dynamic {
		mode = resource.Dynamic
	}
	sched := resource.NewScheduler(eng, pool, mode)
	sched.Backfill = s.Dynamic
	if s.Contiguous {
		sched.Policy = resource.Contiguous
	}
	sched.Ckpt = s.Ckpt.model()
	o := m.observer()
	run := o.Observe("scheduled-jobs", eng)
	sched.Observe(run)
	if reg := run.Metrics(); reg != nil {
		waitHist := reg.Histogram("job_wait_s", "s", 0.01, 0.1, 1, 10, 100)
		sched.OnJobDone = func(j *resource.Job) {
			waitHist.Observe((j.Start - j.Arrival).Seconds())
		}
	}
	var rec *energy.Recorder
	if m.energy {
		rec = sched.Meter(m.boosterNodeModel(), len(s.Jobs))
	}
	if m.powerGate {
		// Gating reshapes the schedule whether or not it is metered.
		wake := sim.FromSeconds(m.wakeSeconds)
		if wake == 0 {
			wake = m.boosterNodeModel().WakeLatency
		}
		sched.PowerGate(wake)
	}
	for _, j := range s.Jobs {
		sched.Submit(&resource.Job{
			ID:       j.ID,
			Arrival:  sim.FromSeconds(j.Arrival),
			Duration: sim.FromSeconds(j.Duration),
			Boosters: j.Boosters,
			Owner:    j.Owner,
		})
	}
	var inj *resil.Injector
	if f := m.faults; f != nil && f.NodeMTBF > 0 {
		horizon := f.Horizon
		if horizon <= 0 {
			horizon = 600
		}
		seed := f.Seed
		if seed == 0 {
			// Documented fallback: the machine seed, so the failure
			// trace stays fixed while per-run problem seeds vary.
			seed = m.seed
		}
		var ttf resil.Distribution = resil.Exponential{M: f.NodeMTBF}
		if f.WeibullShape > 0 {
			ttf = resil.Weibull{Shape: f.WeibullShape, Scale: f.NodeMTBF}
		}
		inj = sched.Inject(sim.FromSeconds(horizon), resil.Faults{
			TTF: ttf,
			TTR: resil.Fixed{D: f.Repair},
		}, seed)
	}
	eng.Run()
	run.Close()

	completed := len(sched.Completed())
	mode_ := "static"
	if s.Dynamic {
		mode_ = "dynamic"
	}
	res := &Result{
		Workload:  "scheduled-jobs",
		Summary:   fmt.Sprintf("jobs=%d boosters=%d mode=%s", len(s.Jobs), pool.Size(), mode_),
		ModelTime: ModelTime(sched.Makespan().Seconds()),
	}
	res.addMetric("makespan_s", sched.Makespan().Seconds(), "")
	res.addMetric("utilisation", sched.Utilisation(), "")
	res.addMetric("mean_wait_ms", float64(sched.MeanWait())/float64(sim.Millisecond), "")
	res.addMetric("completed", float64(completed), "")
	res.addMetric("requeues", float64(sched.Requeued), "")
	res.addMetric("lost_work_s", sched.LostWork.Seconds(), "")
	if inj != nil {
		res.addMetric("node_failures", float64(inj.NodeFailures), "")
		res.addMetric("node_repairs", float64(inj.NodeRepairs), "")
	}
	if rec != nil {
		res.Energy = energyReport(rec)
		res.addMetric("joules", rec.Joules(), "J")
		res.addMetric("gflops_per_watt", rec.GFlopsPerWatt(), "")
	}
	res.Kernel = kernelStats(eng.Stats())
	if o.Tracing() {
		res.Trace = &TraceData{trace: o.Trace()}
	}
	res.Series = metricsReport(run.Metrics(), o.SampleEvery())
	// Verification for a scheduling run: every submitted job completed.
	res.Verified = completed == len(s.Jobs)
	if !res.Verified {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d jobs did not complete",
			len(s.Jobs)-completed, len(s.Jobs)))
	}
	return res, nil
}
