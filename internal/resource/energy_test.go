package resource

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/sim"
)

// TestPowerGatingAddsWakeLatency: a gated allocation pays the wake
// penalty even without an energy group attached (gating is a
// scheduling feature; metering is optional).
func TestPowerGatingAddsWakeLatency(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, NewPool(4), Dynamic)
	s.PowerGate(50 * sim.Millisecond)
	s.Submit(&Job{ID: 0, Arrival: 0, Boosters: 2, Duration: sim.Second})
	eng.Run()
	want := sim.Second + 50*sim.Millisecond
	if got := s.Makespan(); got != want {
		t.Fatalf("gated makespan %v, want %v", got, want)
	}
}

// TestSchedulerPublishesOccupancy: an ungated metered run attributes
// exactly the job's node-seconds to the busy state and the rest to
// idle.
func TestSchedulerPublishesOccupancy(t *testing.T) {
	eng := sim.New()
	rec := energy.NewRecorder(eng)
	g := rec.MustAddGroup("booster", machine.KNC, 4)
	s := NewScheduler(eng, NewPool(4), Dynamic)
	s.Energy = g
	s.Submit(&Job{ID: 0, Arrival: 0, Boosters: 2, Duration: 10 * sim.Second})
	eng.Run()
	if got := g.StateNodeSeconds(machine.PowerBusy); math.Abs(got-20) > 1e-9 {
		t.Fatalf("busy node-seconds %v, want 20", got)
	}
	if got := g.StateNodeSeconds(machine.PowerIdle); math.Abs(got-20) > 1e-9 {
		t.Fatalf("idle node-seconds %v, want 20 (2 spare nodes x 10 s)", got)
	}
	if g.InState(machine.PowerBusy) != 0 || g.InState(machine.PowerIdle) != 4 {
		t.Fatalf("final occupancy busy=%d idle=%d", g.InState(machine.PowerBusy), g.InState(machine.PowerIdle))
	}
	// The completed job credits its nominal node-seconds at peak rate.
	wantFlops := machine.KNC.PeakGFlops * 1e9 * 2 * 10
	if got := rec.Flops(); math.Abs(got-wantFlops) > 1e-6*wantFlops {
		t.Fatalf("credited flops %v, want %v", got, wantFlops)
	}
}

// TestKilledAttemptsBurnWithoutCredit: a job that is killed and rerun
// credits its nominal work exactly once, while the wasted attempt's
// busy time still shows up in joules — GFlop/W must degrade under
// failures, never improve.
func TestKilledAttemptsBurnWithoutCredit(t *testing.T) {
	run := func(fail bool) (flops, joules float64) {
		eng := sim.New()
		rec := energy.NewRecorder(eng)
		g := rec.MustAddGroup("booster", machine.KNC, 2)
		s := NewScheduler(eng, NewPool(2), Dynamic)
		s.Energy = g
		s.Submit(&Job{ID: 0, Arrival: 0, Boosters: 2, Duration: 10 * sim.Second})
		if fail {
			inj := resil.NewInjector(eng, 5*sim.Second)
			inj.Nodes(1, resil.Faults{
				TTF: resil.Fixed{D: 4},
				TTR: resil.Fixed{D: 1},
			}, 1, s)
		}
		eng.Run()
		return rec.Flops(), rec.Joules()
	}
	cleanF, cleanJ := run(false)
	failF, failJ := run(true)
	if failF != cleanF {
		t.Fatalf("credited flops changed under failure: %v vs %v", failF, cleanF)
	}
	if failJ <= cleanJ {
		t.Fatalf("rework did not burn extra energy: %v vs %v", failJ, cleanJ)
	}
}

// TestGatingSavesIdleEnergy: with sleeping spare nodes the same run
// must cost less than leaving them idling, by (idle-sleep) watts times
// the spare node-seconds (modulo the wake-latency occupancy).
func TestGatingSavesIdleEnergy(t *testing.T) {
	run := func(gate bool) float64 {
		eng := sim.New()
		rec := energy.NewRecorder(eng)
		g := rec.MustAddGroup("booster", machine.KNC, 4)
		s := NewScheduler(eng, NewPool(4), Dynamic)
		s.Energy = g
		if gate {
			s.PowerGate(0) // model default wake latency
		}
		s.Submit(&Job{ID: 0, Arrival: 0, Boosters: 2, Duration: 10 * sim.Second})
		eng.Run()
		return rec.Joules()
	}
	gated, ungated := run(true), run(false)
	if gated >= ungated {
		t.Fatalf("gated run %v J >= ungated %v J", gated, ungated)
	}
}

// TestCheckpointIOEnergyCharged: a checkpointed run charges the I/O
// share of the wall under "checkpoint-io".
func TestCheckpointIOEnergyCharged(t *testing.T) {
	eng := sim.New()
	rec := energy.NewRecorder(eng)
	g := rec.MustAddGroup("booster", machine.KNC, 2)
	s := NewScheduler(eng, NewPool(2), Dynamic)
	s.Energy = g
	ck := &resil.Checkpoint{
		Interval:     2 * sim.Second,
		LocalWrite:   250 * sim.Millisecond,
		LocalRestore: 250 * sim.Millisecond,
		Buddy:        true,
		IOWatts:      40,
	}
	s.Ckpt = ck
	work := 10 * sim.Second
	s.Submit(&Job{ID: 0, Arrival: 0, Boosters: 2, Duration: work})
	eng.Run()
	wantIO := ck.RunWall(work) - work
	want := ck.IOEnergyJ(wantIO, 2)
	if got := rec.ChargeJoules("checkpoint-io"); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("checkpoint-io charge %v J, want %v J", got, want)
	}
}

// TestFailureKeepsOccupancyConsistent: kills, requeues, mark-downs and
// repairs must keep the published occupancy summing to the pool size
// in every state combination (the Transition panic guards the rest).
func TestFailureKeepsOccupancyConsistent(t *testing.T) {
	for _, gate := range []bool{false, true} {
		eng := sim.New()
		rec := energy.NewRecorder(eng)
		g := rec.MustAddGroup("booster", machine.KNC, 8)
		s := NewScheduler(eng, NewPool(8), Dynamic)
		s.Backfill = true
		s.Energy = g
		s.Ckpt = &resil.Checkpoint{
			Interval: sim.Second, LocalWrite: 100 * sim.Millisecond,
			LocalRestore: 100 * sim.Millisecond, Buddy: true, IOWatts: 25,
		}
		if gate {
			s.PowerGate(0)
		}
		for i := 0; i < 6; i++ {
			s.Submit(&Job{ID: i, Arrival: sim.Time(i) * 500 * sim.Millisecond,
				Boosters: 2, Duration: 4 * sim.Second})
		}
		inj := resil.NewInjector(eng, 30*sim.Second)
		inj.Nodes(8, resil.Faults{
			TTF: resil.Exponential{M: 6},
			TTR: resil.Fixed{D: 2},
		}, 7, s)
		eng.Run()
		total := 0
		for st := machine.PowerState(0); st < machine.NumPowerStates; st++ {
			total += g.InState(st)
		}
		if total != 8 {
			t.Fatalf("gate=%v: occupancy sums to %d, want 8", gate, total)
		}
		if len(s.Completed()) != 6 {
			t.Fatalf("gate=%v: %d jobs completed", gate, len(s.Completed()))
		}
	}
}

// TestSchedulerObserveMeterInject drives the wiring every scheduling
// run shares: Observe registers the four health gauges and hands its
// trace scope on, Meter chains its freeze behind an OnJobDone already
// set and holds joules at the makespan while the injector's horizon
// keeps the engine running, and Inject's failures requeue a job.
func TestSchedulerObserveMeterInject(t *testing.T) {
	const jobs = 4
	eng := sim.New()
	o := obs.New(true, sim.Second)
	run := o.Observe("sched", eng)
	s := NewScheduler(eng, NewPool(4), Dynamic)
	s.Observe(run)
	var rec *energy.Recorder
	done, atLast := 0, 0.0
	s.OnJobDone = func(*Job) {
		if done++; done == jobs {
			atLast = rec.Joules()
		}
	}
	rec = s.Meter(machine.KNC, jobs)
	for i := 0; i < jobs; i++ {
		s.Submit(&Job{ID: i, Arrival: sim.Time(i) * sim.Second, Boosters: 1, Duration: 10 * sim.Second})
	}
	inj := s.Inject(200*sim.Second, resil.Faults{
		TTF: resil.Exponential{M: 15},
		TTR: resil.Fixed{D: 1},
	}, 5)
	eng.Run()
	run.Close()
	if s.Obs == nil || s.Energy.Obs != s.Obs || inj.Obs != s.Obs {
		t.Fatal("trace scope not shared by scheduler, energy group and injector")
	}
	if len(s.Completed()) != jobs || done != jobs {
		t.Fatalf("%d jobs completed, hook saw %d, want %d", len(s.Completed()), done, jobs)
	}
	if inj.NodeFailures == 0 || s.Requeued == 0 {
		t.Fatalf("%d node failures requeued %d jobs, want both > 0", inj.NodeFailures, s.Requeued)
	}
	if eng.Now() <= s.Makespan() {
		t.Fatalf("engine stopped at %v, not past the makespan %v", eng.Now(), s.Makespan())
	}
	if got := rec.Joules(); atLast == 0 || got != atLast {
		t.Fatalf("joules %v after the run, %v at the last completion: not frozen at the makespan", got, atLast)
	}
	want := map[string]float64{"queue_depth": 0, "free_boosters": 4, "requeues": float64(s.Requeued), "lost_work_s": s.LostWork.Seconds()}
	for _, sr := range run.Metrics().Series() {
		if v, ok := want[sr.Name]; ok {
			if vals := sr.Values(); vals[len(vals)-1] != v {
				t.Fatalf("gauge %s ends at %v, want %v", sr.Name, vals[len(vals)-1], v)
			}
			delete(want, sr.Name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("gauges %v not registered", want)
	}
}
