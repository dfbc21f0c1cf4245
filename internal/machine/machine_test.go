package machine

import (
	"testing"

	"repro/internal/sim"
)

func TestPresetsValid(t *testing.T) {
	for _, m := range []NodeModel{Xeon, KNC, XeonGPU} {
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", m.Kind, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []NodeModel{
		{Cores: 0, ScalarGFlops: 1, PeakGFlops: 1, MemBandwidth: 1},
		{Cores: 1, ScalarGFlops: 0, PeakGFlops: 1, MemBandwidth: 1},
		{Cores: 1, ScalarGFlops: 2, PeakGFlops: 1, MemBandwidth: 1},
		{Cores: 1, ScalarGFlops: 1, PeakGFlops: 1, MemBandwidth: 1, IdleWatts: 5, PeakWatts: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestKNCEnergyClaim(t *testing.T) {
	// Paper slide 15: Xeon Phi is "energy efficient: 5 GFlop/W".
	eff := KNC.PeakGFlops / KNC.PeakWatts
	if eff < 3.5 || eff > 6 {
		t.Fatalf("KNC efficiency %.2f GFlop/W, want about 5", eff)
	}
	// And it must beat the Xeon by a wide margin.
	if xeon := Xeon.PeakGFlops / Xeon.PeakWatts; eff < 3*xeon {
		t.Fatalf("KNC %.2f not >> Xeon %.2f GFlop/W", eff, xeon)
	}
}

func TestKernelTimeScalesWithCores(t *testing.T) {
	k := Kernel{Flops: 1e9, Bytes: 0, ParallelFraction: 1}
	t1 := KNC.Time(k, 1)
	t60 := KNC.Time(k, 60)
	ratio := float64(t1) / float64(t60)
	if ratio < 50 || ratio > 70 {
		t.Fatalf("60-core speedup %.1f, want about 60", ratio)
	}
}

func TestKernelTimeAmdahl(t *testing.T) {
	k := Kernel{Flops: 1e9, ParallelFraction: 0.5}
	tAll := KNC.Time(k, 60)
	// Serial half at 1 GFlop/s scalar = 0.5 s; dominates.
	if tAll < sim.FromSeconds(0.5) {
		t.Fatalf("Amdahl floor violated: %v", tAll)
	}
}

func TestKernelMemoryBound(t *testing.T) {
	// 1 flop per 1000 bytes: memory roofline must bind.
	k := Kernel{Flops: 1e6, Bytes: 1e9, ParallelFraction: 1}
	got := Xeon.Time(k, 16)
	want := sim.FromSeconds(1e9 / Xeon.MemBandwidth)
	if got < want {
		t.Fatalf("memory-bound kernel too fast: %v < %v", got, want)
	}
}

func TestScalarRatioXeonVsKNC(t *testing.T) {
	// Serial code must be much slower on the booster node — the reason
	// main() stays on the cluster.
	k := Kernel{Flops: 1e9, ParallelFraction: 0}
	if KNC.Time(k, 60) <= Xeon.Time(k, 16) {
		t.Fatal("KNC should be slower than Xeon on serial code")
	}
}

func TestParallelRatioKNCvsXeon(t *testing.T) {
	// Fully parallel vector code must be faster on the booster node.
	k := Kernel{Flops: 1e12, ParallelFraction: 1, VectorEfficiency: 0.9}
	if KNC.Time(k, 60) >= Xeon.Time(k, 16) {
		t.Fatal("KNC should beat Xeon on parallel vector code")
	}
}

func TestPowerInterpolation(t *testing.T) {
	if got := Xeon.Power(0); got != Xeon.IdleWatts {
		t.Fatalf("idle power %v", got)
	}
	if got := Xeon.Power(1); got != Xeon.PeakWatts {
		t.Fatalf("peak power %v", got)
	}
	mid := Xeon.Power(0.5)
	if mid <= Xeon.IdleWatts || mid >= Xeon.PeakWatts {
		t.Fatalf("mid power %v outside bounds", mid)
	}
	if Xeon.Power(-1) != Xeon.IdleWatts || Xeon.Power(2) != Xeon.PeakWatts {
		t.Fatal("power not clamped")
	}
}

func TestSystemConfigsValid(t *testing.T) {
	c, b, d := DEEPConfigs(128, 384)
	for _, s := range []System{c, b, d} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if d.PeakGFlops() <= c.PeakGFlops() {
		t.Fatal("DEEP peak should exceed cluster-only peak")
	}
	if b.PeakGFlops()/b.PeakWatts() <= c.PeakGFlops()/c.PeakWatts() {
		t.Fatal("booster should be more energy efficient than cluster")
	}
}

func TestEfficiencyMonotonicity(t *testing.T) {
	_, _, deep := DEEPConfigs(128, 384)
	for _, app := range []AppClass{RegularSparse, ComplexApp, MixedApp} {
		prev := 1.1
		for _, n := range []int{1, 4, 16, 64, 256, 1024} {
			e := deep.Efficiency(app, KNC, n)
			if e <= 0 || e > 1.0001 {
				t.Fatalf("%s @%d: efficiency %v out of (0,1]", app.Name, n, e)
			}
			if e > prev+1e-9 {
				t.Fatalf("%s: efficiency rose from %v to %v at n=%d", app.Name, prev, e, n)
			}
			prev = e
		}
	}
}

func TestRegularScalesComplexDoesNot(t *testing.T) {
	_, _, deep := DEEPConfigs(128, 384)
	const n = 1024
	regular := deep.Efficiency(RegularSparse, KNC, n)
	complexE := deep.Efficiency(ComplexApp, KNC, n)
	if regular < 0.7 {
		t.Fatalf("regular app efficiency %v at %d nodes, want > 0.7", regular, n)
	}
	if complexE > 0.3 {
		t.Fatalf("complex app efficiency %v at %d nodes, want < 0.3", complexE, n)
	}
}

func TestEfficiencyOneNode(t *testing.T) {
	_, _, deep := DEEPConfigs(4, 4)
	if e := deep.Efficiency(ComplexApp, Xeon, 1); e != 1 {
		t.Fatalf("single-node efficiency %v", e)
	}
	if e := deep.Efficiency(ComplexApp, Xeon, 0); e != 0 {
		t.Fatalf("zero-node efficiency %v", e)
	}
}

func TestSystemValidateRejectsEmpty(t *testing.T) {
	s := System{Name: "empty"}
	if err := s.Validate(); err == nil {
		t.Fatal("empty system accepted")
	}
}

func TestKernelTimeClampsProcs(t *testing.T) {
	k := Kernel{Flops: 1e9, ParallelFraction: 1}
	if got, want := KNC.Time(k, 1000), KNC.Time(k, 60); got != want {
		t.Fatalf("procs not capped at cores: %v vs %v", got, want)
	}
	if got, want := KNC.Time(k, 0), KNC.Time(k, 1); got != want {
		t.Fatalf("procs not floored at 1: %v vs %v", got, want)
	}
}

func TestKernelTimeZeroWork(t *testing.T) {
	if got := Xeon.Time(Kernel{}, 4); got != 0 {
		t.Fatalf("zero kernel time %v", got)
	}
}

func TestNodeKindString(t *testing.T) {
	if ClusterNode.String() != "cluster-node" || BoosterNode.String() != "booster-node" ||
		GPUNode.String() != "gpu-node" {
		t.Fatal("NodeKind string labels wrong")
	}
	if NodeKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestPowerStates(t *testing.T) {
	for _, m := range []NodeModel{Xeon, KNC, XeonGPU} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if m.StateWatts(PowerSleep) != m.SleepWatts ||
			m.StateWatts(PowerIdle) != m.IdleWatts ||
			m.StateWatts(PowerBusy) != m.PeakWatts {
			t.Fatalf("%v: StateWatts disagrees with the model fields", m.Kind)
		}
		if !(m.SleepWatts < m.IdleWatts && m.IdleWatts < m.PeakWatts) {
			t.Fatalf("%v: power states not ordered: %v/%v/%v",
				m.Kind, m.SleepWatts, m.IdleWatts, m.PeakWatts)
		}
		if m.WakeLatency <= 0 || m.SleepLatency <= 0 {
			t.Fatalf("%v: missing power-state transition latencies", m.Kind)
		}
		if m.WakeLatency < m.SleepLatency {
			t.Fatalf("%v: waking should cost more than dropping to sleep", m.Kind)
		}
	}
	bad := Xeon
	bad.SleepWatts = bad.IdleWatts + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("sleep draw above idle accepted")
	}
	bad = KNC
	bad.WakeLatency = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative wake latency accepted")
	}
}
