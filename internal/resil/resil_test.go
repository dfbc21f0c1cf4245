package resil

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

func TestDistributionMeans(t *testing.T) {
	r := rng.New(42)
	for _, tc := range []struct {
		name string
		d    Distribution
	}{
		{"exp", Exponential{M: 50}},
		{"weibull-wearout", Weibull{Shape: 1.5, Scale: 50}},
		{"weibull-infant", Weibull{Shape: 0.7, Scale: 50}},
		{"fixed", Fixed{D: 50}},
	} {
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := tc.d.Sample(r)
			if v <= 0 {
				t.Fatalf("%s: non-positive sample %v", tc.name, v)
			}
			sum += v
		}
		got := sum / n
		want := tc.d.Mean()
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s: empirical mean %.2f, analytic %.2f", tc.name, got, want)
		}
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	w := Weibull{Shape: 1, Scale: 30}
	if math.Abs(w.Mean()-30) > 1e-9 {
		t.Fatalf("Weibull(1, 30) mean %v", w.Mean())
	}
}

func TestYoungDalyIntervals(t *testing.T) {
	// delta = 60 s, M = 24 h: Young = sqrt(2*60*86400) ~ 3221 s.
	young := YoungInterval(60, 86400)
	if math.Abs(young-math.Sqrt(2*60*86400)) > 1e-9 {
		t.Fatalf("young = %v", young)
	}
	// Daly's correction is small and positive-ish near Young for
	// delta << M, and always close to Young in that regime.
	daly := DalyInterval(60, 86400)
	if math.Abs(daly-young)/young > 0.05 {
		t.Fatalf("daly %v far from young %v", daly, young)
	}
	// Degenerate regime: write cost >= 2*MTBF collapses to MTBF.
	if got := DalyInterval(100, 40); got != 40 {
		t.Fatalf("degenerate daly = %v", got)
	}
}

func TestInjectorDeterministicAndBounded(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.New()
		inj := NewInjector(eng, 1000*sim.Second)
		var times []sim.Time
		rec := &recorder{onFail: func(int) { times = append(times, eng.Now()) }}
		inj.Nodes(16, Faults{TTF: Exponential{M: 100}, TTR: Fixed{D: 5}}, 7, rec)
		eng.Run()
		if inj.NodeFailures != uint64(len(times)) {
			t.Fatalf("counter %d vs %d observed", inj.NodeFailures, len(times))
		}
		if inj.NodeRepairs > inj.NodeFailures {
			t.Fatalf("%d repairs for %d failures", inj.NodeRepairs, inj.NodeFailures)
		}
		return times
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no failures injected")
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ: %d vs %d failures", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("failure %d at %v vs %v", i, a[i], b[i])
		}
		if a[i] > 1000*sim.Second {
			t.Fatalf("failure %d at %v beyond horizon", i, a[i])
		}
	}
	// 16 nodes, MTBF 100 s, horizon 1000 s: expect on the order of 160
	// failures; insist on the right order of magnitude.
	if len(a) < 80 || len(a) > 320 {
		t.Fatalf("%d failures, expected ~160", len(a))
	}
}

func TestInjectorZeroRateInjectsNothing(t *testing.T) {
	eng := sim.New()
	inj := NewInjector(eng, 1000*sim.Second)
	inj.Nodes(64, Faults{}, 7, &recorder{})              // nil TTF = off
	inj.Links(64, Faults{}, 7, &linkRecorder{})          // nil TTF = off
	inj.Nodes(0, Faults{TTF: Exponential{M: 1}}, 7, nil) // zero nodes
	if eng.Pending() != 0 {
		t.Fatalf("%d events scheduled with injection off", eng.Pending())
	}
}

func TestInjectorAlternatesFailRepair(t *testing.T) {
	eng := sim.New()
	inj := NewInjector(eng, 500*sim.Second)
	state := map[int]bool{} // id -> down
	rec := &recorder{
		onFail: func(id int) {
			if state[id] {
				t.Fatalf("node %d failed while down", id)
			}
			state[id] = true
		},
		onRepair: func(id int) {
			if !state[id] {
				t.Fatalf("node %d repaired while up", id)
			}
			state[id] = false
		},
	}
	inj.Nodes(8, Faults{TTF: Weibull{Shape: 0.7, Scale: 50}, TTR: Exponential{M: 2}}, 11, rec)
	eng.Run()
	if inj.NodeFailures == 0 {
		t.Fatal("no failures")
	}
}

func TestInjectorLinks(t *testing.T) {
	eng := sim.New()
	inj := NewInjector(eng, 300*sim.Second)
	var fails, repairs int
	rec := &linkRecorder{
		onFail:   func(int) { fails++ },
		onRepair: func(int) { repairs++ },
	}
	inj.Links(4, Faults{TTF: Exponential{M: 40}, TTR: Fixed{D: 1}}, 3, rec)
	eng.Run()
	if fails == 0 || uint64(fails) != inj.LinkFailures {
		t.Fatalf("fails %d (counter %d)", fails, inj.LinkFailures)
	}
	if repairs != fails {
		t.Fatalf("%d repairs for %d failures (all repairs should be delivered)", repairs, fails)
	}
}

type recorder struct {
	onFail   func(int)
	onRepair func(int)
}

func (r *recorder) NodeFailed(id int) {
	if r.onFail != nil {
		r.onFail(id)
	}
}
func (r *recorder) NodeRepaired(id int) {
	if r.onRepair != nil {
		r.onRepair(id)
	}
}

type linkRecorder struct {
	onFail   func(int)
	onRepair func(int)
}

func (r *linkRecorder) LinkFailed(id int) {
	if r.onFail != nil {
		r.onFail(id)
	}
}
func (r *linkRecorder) LinkRepaired(id int) {
	if r.onRepair != nil {
		r.onRepair(id)
	}
}

func TestCheckpointValidate(t *testing.T) {
	good := &Checkpoint{Interval: sim.Second, LocalWrite: 100 * sim.Millisecond, Buddy: true}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Checkpoint{
		{Interval: 0, Buddy: true},
		{Interval: sim.Second, LocalWrite: -1, Buddy: true},
		{Interval: sim.Second}, // local-only without buddy: unrestorable
		{Interval: sim.Second, GlobalEvery: -1, Buddy: true},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestCheckpointRunWall(t *testing.T) {
	c := &Checkpoint{Interval: 10 * sim.Second, LocalWrite: sim.Second, Buddy: true}
	// 35 s of work: checkpoints after 10, 20, 30 -> 3 writes of 2 s.
	if got := c.RunWall(35 * sim.Second); got != 41*sim.Second {
		t.Fatalf("RunWall(35 s) = %v", got)
	}
	// Exactly 30 s: the checkpoint at 30 s would be useless.
	if got := c.RunWall(30 * sim.Second); got != 34*sim.Second {
		t.Fatalf("RunWall(30 s) = %v", got)
	}
	if got := c.RunWall(35*sim.Second) - 35*sim.Second; got != 6*sim.Second {
		t.Fatalf("Overhead = %v", got)
	}
	// Multi-level: every 2nd checkpoint also global.
	m := &Checkpoint{
		Interval: 10 * sim.Second, LocalWrite: sim.Second,
		GlobalWrite: 5 * sim.Second, GlobalEvery: 2,
	}
	// 45 s: 4 ckpts, 4x1 local + 2x5 global = 14 s overhead.
	if got := m.RunWall(45 * sim.Second); got != 59*sim.Second {
		t.Fatalf("multi-level RunWall = %v", got)
	}
}

func TestCheckpointProgressBuddy(t *testing.T) {
	c := &Checkpoint{
		Interval: 10 * sim.Second, LocalWrite: sim.Second,
		LocalRestore: 500 * sim.Millisecond, Buddy: true,
	}
	// Segment = 10 + 2 = 12 s. Before the first write completes:
	// nothing saved.
	if saved, _ := c.Progress(11 * sim.Second); saved != 0 {
		t.Fatalf("saved %v before first write completed", saved)
	}
	// Just past the first write: 10 s saved, local restore cost.
	saved, restore := c.Progress(12 * sim.Second)
	if saved != 10*sim.Second || restore != 500*sim.Millisecond {
		t.Fatalf("saved %v restore %v", saved, restore)
	}
	// Deep into segment 3: two checkpoints done.
	if saved, _ = c.Progress(30 * sim.Second); saved != 20*sim.Second {
		t.Fatalf("saved %v at 30 s", saved)
	}
}

func TestCheckpointProgressMultiLevelSurvivability(t *testing.T) {
	// No buddy: only global checkpoints survive a node failure.
	c := &Checkpoint{
		Interval: 10 * sim.Second, LocalWrite: sim.Second,
		LocalRestore: 500 * sim.Millisecond,
		GlobalWrite:  4 * sim.Second, GlobalRestore: 2 * sim.Second,
		GlobalEvery: 2,
	}
	// Timeline: [10 work][1 local] [10 work][1 local+4 global] ...
	// After 12 s only ckpt 1 (local) is done -> dies with the node.
	if saved, restore := c.Progress(12 * sim.Second); saved != 0 || restore != 0 {
		t.Fatalf("local-only ckpt survived: saved %v restore %v", saved, restore)
	}
	// After 26 s ckpt 2 (global) is done -> 20 s saved, global restore.
	saved, restore := c.Progress(26 * sim.Second)
	if saved != 20*sim.Second || restore != 2*sim.Second {
		t.Fatalf("saved %v restore %v", saved, restore)
	}
}

func TestEffectiveWriteSeconds(t *testing.T) {
	c := &Checkpoint{
		Interval: sim.Second, LocalWrite: sim.Second, Buddy: true,
		GlobalWrite: 10 * sim.Second, GlobalEvery: 5,
	}
	// 2x1 buddy local + 10/5 amortised global = 4 s.
	if got := c.EffectiveWriteSeconds(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("effective write %v", got)
	}
}

func TestExpectedWallMatchesDalyShape(t *testing.T) {
	// The analytic expected wall time should be minimised near the
	// Daly interval.
	const work, mtbf = 600.0, 50.0
	delta := 1.0
	daly := DalyInterval(delta, mtbf)
	wallAt := func(interval float64) float64 {
		c := &Checkpoint{
			Interval:   sim.FromSeconds(interval),
			LocalWrite: sim.FromSeconds(delta / 2), // buddy doubles it
			Buddy:      true,
		}
		return c.ExpectedWallSeconds(work, mtbf)
	}
	best := wallAt(daly)
	if wallAt(daly/8) <= best || wallAt(daly*8) <= best {
		t.Fatalf("daly %v not near-optimal: %v vs %v / %v",
			daly, best, wallAt(daly/8), wallAt(daly*8))
	}
}
