package resource

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/sim"
)

// Job is one unit of scheduled work: it needs Boosters booster nodes
// for Duration once started. In static mode the job may only use the
// boosters owned by its Owner (the cluster node it runs on); in
// dynamic mode it draws from the whole pool.
type Job struct {
	ID       int
	Arrival  sim.Time
	Boosters int
	Duration sim.Time
	// Owner is the cluster-node group for static assignment.
	Owner int

	// Results, filled by the scheduler.
	Start sim.Time
	End   sim.Time
	// Restarts counts how many times a node failure killed the job and
	// forced a requeue.
	Restarts int
	nodes    []int

	// Resilience bookkeeping (all zero on the perfect machine).
	started      bool
	remaining    sim.Time // nominal compute still owed
	restore      sim.Time // restore cost owed at next start
	attempt      int      // bumped on kill; invalidates the pending finish
	attemptStart sim.Time
	wallPlanned  sim.Time // planned wall of the current attempt
	// startOverhead is the non-compute prefix of the current attempt
	// (restore + wake latency); ioPlanned the checkpoint/restore I/O
	// share of the planned wall, for energy attribution.
	startOverhead sim.Time
	ioPlanned     sim.Time
	// killedAt stamps the last failure-induced kill, so the trace can
	// show the requeue-to-restart wait as a span.
	killedAt sim.Time
}

// Wait returns the job's queueing delay.
func (j *Job) Wait() sim.Time { return j.Start - j.Arrival }

// AssignMode selects the paper's two assignment schemes.
type AssignMode int

// Assignment modes (paper slide 8: "static and dynamical assignment
// possible").
const (
	// Static binds each job to its owner's fixed accelerator group —
	// the conventional accelerated-cluster wiring.
	Static AssignMode = iota
	// Dynamic draws from the global booster pool.
	Dynamic
)

// String implements fmt.Stringer.
func (m AssignMode) String() string {
	if m == Static {
		return "static"
	}
	return "dynamic"
}

// Scheduler runs jobs through a pool in virtual time: FCFS with
// optional EASY backfilling (a smaller job may jump the queue if it
// fits in the currently free nodes while the head job waits).
type Scheduler struct {
	Eng      *sim.Engine
	Pool     *Pool
	Mode     AssignMode
	Policy   Policy
	Backfill bool

	// Ckpt, when non-nil, makes every job checkpoint per the model:
	// checkpoint writes are charged against the job's wall time and a
	// job killed by a node failure restarts from its last surviving
	// checkpoint instead of from scratch. Nil models a perfect machine
	// with free restarts-from-zero (only relevant under injection).
	Ckpt *resil.Checkpoint

	// Requeued counts failure-induced job kills; LostWork accumulates
	// the wall time thrown away by them (elapsed run time minus the
	// checkpointed progress that survived).
	Requeued uint64
	LostWork sim.Time

	// Energy, when non-nil, is the booster node group the scheduler
	// publishes power-state transitions into as jobs start, finish and
	// are killed; checkpoint I/O energy is charged into its recorder
	// under "checkpoint-io", and each *completed* job credits its
	// nominal node-seconds at peak rate as useful flops — rework of
	// killed attempts, checkpoint writes and wake latency draw power
	// without producing flops, so GFlop/W degrades exactly when
	// efficiency does. Nil (the default) keeps the scheduler
	// byte-identical to the unmetered one.
	Energy *energy.NodeGroup
	// OnJobDone, when non-nil, fires as each job completes; Meter
	// chains its recorder freeze at the makespan behind it.
	OnJobDone func(*Job)
	// GateIdle power-gates free boosters: released nodes drop to the
	// sleep state and every allocation pays WakeLatency before compute
	// starts — the latency/energy trade of the self-healing pool.
	// Enable through PowerGate so already-free nodes are put to sleep.
	GateIdle bool
	// WakeLatency is the sleep -> busy penalty of a gated allocation.
	WakeLatency sim.Time

	// Obs, when non-nil, receives the job lifecycle as trace events:
	// queued/requeue instants, wait spans, one span per attempt (run
	// or killed) with wake/restore/checkpoint sub-spans. Nil — the
	// default — is inert.
	Obs *obs.Scope

	queue     []*Job
	completed []*Job
	busyArea  float64      // node-seconds of booster occupancy
	running   map[int]*Job // node id -> job, for failure targeting
	ckptOK    bool         // Ckpt validated on first use
}

// NewScheduler returns a scheduler over the pool.
func NewScheduler(eng *sim.Engine, pool *Pool, mode AssignMode) *Scheduler {
	return &Scheduler{Eng: eng, Pool: pool, Mode: mode, Policy: FirstFit}
}

// PowerGate enables idle-booster power gating with the given wake
// latency (zero uses the energy group's node model latency). Call
// after setting Energy and before submitting jobs: every currently
// free node is put to sleep.
func (s *Scheduler) PowerGate(wake sim.Time) {
	s.GateIdle = true
	if wake == 0 && s.Energy != nil {
		wake = s.Energy.Model.WakeLatency
	}
	s.WakeLatency = wake
	s.Energy.Transition(s.Pool.Free(), machine.PowerIdle, machine.PowerSleep)
}

// Observe routes the job lifecycle into run's trace scope and
// registers the scheduler-health gauges every engine-backed
// scheduling run exports. A nil run is inert.
func (s *Scheduler) Observe(run *obs.Run) {
	s.Obs = run.Scope()
	reg := run.Metrics()
	if reg == nil {
		return
	}
	reg.Gauge("queue_depth", "jobs", func() float64 { return float64(s.QueueLen()) })
	reg.Gauge("free_boosters", "nodes", func() float64 { return float64(s.Pool.Free()) })
	reg.Gauge("requeues", "", func() float64 { return float64(s.Requeued) })
	reg.Gauge("lost_work_s", "s", func() float64 { return s.LostWork.Seconds() })
}

// Meter attaches a recorder with one "booster" group of model over
// the whole pool, drawing into the trace scope set by Observe, and
// returns it. The recorder freezes when the jobs-th job completes —
// after any OnJobDone already set — since a fault injector keeps the
// engine alive to its horizon and energy to solution ends at the
// makespan. Call after Observe and before submitting jobs.
func (s *Scheduler) Meter(model machine.NodeModel, jobs int) *energy.Recorder {
	rec := energy.NewRecorder(s.Eng)
	s.Energy = rec.MustAddGroup("booster", model, s.Pool.Size())
	s.Energy.Obs = s.Obs
	s.Energy.ObsTid = obs.LanePower
	prev, done := s.OnJobDone, 0
	s.OnJobDone = func(j *Job) {
		if prev != nil {
			prev(j)
		}
		if done++; done == jobs {
			rec.Freeze()
		}
	}
	return rec
}

// Inject starts a node fail/repair process over the whole pool up to
// horizon, tracing into the scope set by Observe, and returns the
// injector for its counters. Call after submitting the jobs.
func (s *Scheduler) Inject(horizon sim.Time, f resil.Faults, seed uint64) *resil.Injector {
	inj := resil.NewInjector(s.Eng, horizon)
	inj.Obs = s.Obs
	inj.Nodes(s.Pool.Size(), f, seed, s)
	return inj
}

// releaseState is the power state free nodes sit in.
func (s *Scheduler) releaseState() machine.PowerState {
	if s.GateIdle {
		return machine.PowerSleep
	}
	return machine.PowerIdle
}

// chargeIO publishes the checkpoint/restore I/O energy of io wall
// time on n nodes into the energy recorder.
func (s *Scheduler) chargeIO(io sim.Time, n int) {
	if s.Ckpt == nil || s.Energy == nil {
		return
	}
	s.Energy.Recorder().Charge("checkpoint-io", s.Ckpt.IOEnergyJ(io, n))
}

// Submit schedules the job's arrival.
func (s *Scheduler) Submit(j *Job) {
	if j.Boosters <= 0 || j.Duration <= 0 {
		panic(fmt.Sprintf("resource: job %d with %d boosters for %v", j.ID, j.Boosters, j.Duration))
	}
	s.Eng.At(j.Arrival, func() {
		j.remaining = j.Duration
		if s.Obs.Enabled() {
			s.Obs.Instant(obs.LaneJobs+j.ID, "sched", "queued", s.Eng.Now(),
				obs.KV{K: "boosters", V: j.Boosters},
				obs.KV{K: "duration_s", V: j.Duration.Seconds()})
		}
		s.queue = append(s.queue, j)
		s.dispatch()
	})
}

// tryAlloc attempts to start job j now.
func (s *Scheduler) tryAlloc(j *Job) bool {
	if s.Ckpt != nil && !s.ckptOK {
		if err := s.Ckpt.Validate(); err != nil {
			panic(fmt.Sprintf("resource: %v", err))
		}
		s.ckptOK = true
	}
	var ids []int
	var err error
	switch s.Mode {
	case Static:
		want := j.Boosters
		if own := s.Pool.OwnedTotal(j.Owner); want > own {
			// The job cannot ever get more than its owner's group; it
			// runs with what the group has (the static penalty).
			want = own
		}
		if want == 0 {
			// No accelerators at all: the job runs unaccelerated for a
			// stretched duration; model as 1-node-equivalent busy with
			// no pool usage (and no exposure to booster failures).
			s.markStart(j)
			dur := stretch(j.remaining, j.Boosters, 1)
			j.wallPlanned = dur
			s.finishAt(j, dur)
			return true
		}
		ids, err = s.Pool.AllocOwned(j.Owner, want)
	default:
		ids, err = s.Pool.Alloc(j.Boosters, s.Policy)
	}
	if err != nil {
		return false
	}
	j.nodes = ids
	s.markStart(j)
	work := stretch(j.remaining, j.Boosters, len(ids))
	wall := work
	j.startOverhead = 0
	j.ioPlanned = 0
	if s.Ckpt != nil {
		wall = j.restore + s.Ckpt.RunWall(work)
		j.startOverhead = j.restore
		j.ioPlanned = wall - work // checkpoint writes + restore
	}
	if s.GateIdle {
		// Gated nodes wake before compute can start; the wake counts
		// as occupancy (the node draws power ramping up) but not as
		// compute progress.
		wall += s.WakeLatency
		j.startOverhead += s.WakeLatency
	}
	s.Energy.Transition(len(ids), s.releaseState(), machine.PowerBusy)
	j.wallPlanned = wall
	if s.running == nil {
		s.running = make(map[int]*Job)
	}
	for _, id := range ids {
		s.running[id] = j
	}
	s.busyArea += float64(len(ids)) * wall.Seconds()
	s.finishAt(j, wall)
	return true
}

// markStart records the attempt start and, on the first attempt, the
// job's dispatch time (the end of its queueing delay).
func (s *Scheduler) markStart(j *Job) {
	j.attemptStart = s.Eng.Now()
	if !j.started {
		j.started = true
		j.Start = s.Eng.Now()
		if s.Obs.Enabled() && j.Start > j.Arrival {
			s.Obs.Span(obs.LaneJobs+j.ID, "sched", "wait", j.Arrival, j.Start)
		}
	} else if s.Obs.Enabled() && s.Eng.Now() > j.killedAt {
		s.Obs.Span(obs.LaneJobs+j.ID, "sched", "requeue-wait", j.killedAt, s.Eng.Now())
	}
}

// obsMaxCkptSpans bounds the checkpoint spans reconstructed per
// attempt: a pathological interval/duration ratio must not flood the
// trace.
const obsMaxCkptSpans = 4096

// obsAttempt emits the trace spans of one attempt that ended (done or
// killed) at end: the attempt span itself plus, when the attempt held
// nodes, its wake/restore overhead spans and one span per checkpoint
// write that completed. Checkpoints are not discrete events in the
// scheduler (they are folded into the attempt's wall time by
// Ckpt.RunWall), so their times are reconstructed from the model's
// interval/write-cost geometry — the same walk Ckpt.Progress does.
func (s *Scheduler) obsAttempt(j *Job, start, end sim.Time, name string, args ...obs.KV) {
	tid := obs.LaneJobs + j.ID
	s.Obs.Span(tid, "sched", name, start, end, args...)
	if j.nodes == nil {
		return
	}
	cursor := start
	if s.GateIdle && s.WakeLatency > 0 {
		wakeEnd := cursor + s.WakeLatency
		if wakeEnd > end {
			wakeEnd = end
		}
		s.Obs.Span(tid, "sched", "wake", cursor, wakeEnd)
		cursor = wakeEnd
	}
	if restore := start + j.startOverhead - cursor; restore > 0 {
		restoreEnd := cursor + restore
		if restoreEnd > end {
			restoreEnd = end
		}
		s.Obs.Span(tid, "ckpt", "restore", cursor, restoreEnd)
	}
	if s.Ckpt == nil {
		return
	}
	t := start + j.startOverhead
	for i := 1; i <= obsMaxCkptSpans; i++ {
		w := s.Ckpt.WriteCost(i)
		segEnd := t + s.Ckpt.Interval + w
		if segEnd > end {
			break
		}
		s.Obs.Span(tid, "ckpt", "checkpoint", segEnd-w, segEnd, obs.KV{K: "index", V: i})
		t = segEnd
	}
}

func (s *Scheduler) finishAt(j *Job, dur sim.Time) {
	att := j.attempt
	s.Eng.After(dur, func() {
		if j.attempt != att {
			// The job was killed by a node failure after this finish
			// was scheduled; its nodes were already released on the
			// kill path, so the stale event must not touch them.
			return
		}
		j.End = s.Eng.Now()
		j.remaining = 0
		if s.Obs.Enabled() {
			s.obsAttempt(j, j.attemptStart, j.End, "run",
				obs.KV{K: "attempt", V: j.attempt + 1})
			s.Obs.Instant(obs.LaneJobs+j.ID, "sched", "done", j.End)
		}
		if j.nodes != nil {
			s.Energy.Transition(len(j.nodes), machine.PowerBusy, s.releaseState())
			s.chargeIO(j.ioPlanned, len(j.nodes))
			for _, id := range j.nodes {
				delete(s.running, id)
			}
			s.Pool.Release(j.nodes)
			j.nodes = nil
		}
		if s.Energy != nil {
			// The completed job delivered its nominal work, however many
			// attempts it took: Boosters nodes at peak for Duration.
			s.Energy.AddFlops(s.Energy.Model.PeakGFlops * 1e9 *
				float64(j.Boosters) * j.Duration.Seconds())
		}
		s.completed = append(s.completed, j)
		if s.OnJobDone != nil {
			s.OnJobDone(j)
		}
		s.dispatch()
	})
}

// NodeFailed implements resil.NodeTarget: the job running on the node
// (if any) is killed and requeued at the head of the queue, and the
// node leaves service until NodeRepaired.
func (s *Scheduler) NodeFailed(id int) {
	if j, ok := s.running[id]; ok {
		s.kill(j)
	}
	// After the kill the node is free; a repeated failure while already
	// down is ignored. A down node is modelled at sleep draw (it is
	// powered off for repair).
	if s.Energy != nil && s.Pool.State(id) == NodeFree && !s.GateIdle {
		s.Energy.Transition(1, machine.PowerIdle, machine.PowerSleep)
	}
	_ = s.Pool.MarkDown(id)
	s.dispatch()
}

// NodeRepaired implements resil.NodeTarget: the node rejoins the pool
// and the queue is re-dispatched (self-healing).
func (s *Scheduler) NodeRepaired(id int) {
	if err := s.Pool.Repair(id); err == nil && s.Energy != nil && !s.GateIdle {
		s.Energy.Transition(1, machine.PowerSleep, machine.PowerIdle)
	}
	s.dispatch()
}

// kill tears down a running job after one of its nodes failed: all its
// nodes are released (the failed one is marked down by the caller),
// checkpointed progress is credited against its remaining work, and
// the job is requeued with priority.
func (s *Scheduler) kill(j *Job) {
	elapsed := s.Eng.Now() - j.attemptStart
	got := len(j.nodes)
	// Return the occupancy this attempt will no longer use.
	s.busyArea -= float64(got) * (j.wallPlanned - elapsed).Seconds()
	s.Energy.Transition(got, machine.PowerBusy, s.releaseState())
	if j.wallPlanned > 0 {
		// Charge the I/O share of the elapsed wall: the attempt's
		// checkpoint writes were interleaved with its compute.
		s.chargeIO(sim.Time(float64(elapsed)*float64(j.ioPlanned)/float64(j.wallPlanned)), got)
	}
	var savedWall sim.Time
	if s.Ckpt != nil {
		if computeElapsed := elapsed - j.startOverhead; computeElapsed > 0 {
			saved, restore := s.Ckpt.Progress(computeElapsed)
			if saved > 0 {
				savedWall = saved
				nominal := unstretch(saved, j.Boosters, got)
				if nominal > j.remaining {
					nominal = j.remaining
				}
				j.remaining -= nominal
				j.restore = restore
			}
			// With no surviving checkpoint the previous one (if any)
			// stays valid: remaining and restore are left untouched.
		}
	}
	s.LostWork += elapsed - savedWall
	if s.Obs.Enabled() {
		s.obsAttempt(j, j.attemptStart, s.Eng.Now(), "killed",
			obs.KV{K: "attempt", V: j.attempt + 1},
			obs.KV{K: "lost_s", V: (elapsed - savedWall).Seconds()},
			obs.KV{K: "saved_s", V: savedWall.Seconds()})
		s.Obs.Instant(obs.LaneJobs+j.ID, "sched", "requeue", s.Eng.Now(),
			obs.KV{K: "restarts", V: j.Restarts + 1})
	}
	j.killedAt = s.Eng.Now()
	for _, id := range j.nodes {
		delete(s.running, id)
	}
	s.Pool.Release(j.nodes)
	j.nodes = nil
	j.attempt++
	j.Restarts++
	s.Requeued++
	s.queue = append([]*Job{j}, s.queue...)
}

// stretch scales the nominal duration when a job runs on fewer
// boosters than it wants: perfectly divisible work is assumed.
func stretch(d sim.Time, want, got int) sim.Time {
	if got >= want {
		return d
	}
	return sim.Time(float64(d) * float64(want) / float64(got))
}

// unstretch converts wall progress on got nodes back into nominal
// (want-node) work — the inverse of stretch.
func unstretch(d sim.Time, want, got int) sim.Time {
	if got >= want {
		return d
	}
	return sim.Time(float64(d) * float64(got) / float64(want))
}

// dispatch starts every queued job it can, honouring FCFS order with
// optional backfilling.
func (s *Scheduler) dispatch() {
	i := 0
	for i < len(s.queue) {
		j := s.queue[i]
		if s.tryAlloc(j) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			continue
		}
		if !s.Backfill {
			return // strict FCFS: head blocks the queue
		}
		i++ // backfill: try the next job
	}
}

// Completed returns the finished jobs.
func (s *Scheduler) Completed() []*Job { return s.completed }

// QueueLen returns the number of waiting jobs.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Makespan returns the latest completion time.
func (s *Scheduler) Makespan() sim.Time {
	var m sim.Time
	for _, j := range s.completed {
		if j.End > m {
			m = j.End
		}
	}
	return m
}

// Utilisation returns booster node-seconds used divided by
// (pool size x makespan).
func (s *Scheduler) Utilisation() float64 {
	m := s.Makespan()
	if m == 0 {
		return 0
	}
	return s.busyArea / (float64(s.Pool.Size()) * m.Seconds())
}

// MeanWait returns the average queueing delay of completed jobs.
func (s *Scheduler) MeanWait() sim.Time {
	if len(s.completed) == 0 {
		return 0
	}
	var sum sim.Time
	for _, j := range s.completed {
		sum += j.Wait()
	}
	return sum / sim.Time(len(s.completed))
}
