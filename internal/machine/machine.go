// Package machine provides analytic node and system models for the
// DEEP reproduction: multi-core Cluster Nodes (Xeon-class), many-core
// Booster Nodes (Xeon Phi / KNC-class), GPU-accelerated nodes for the
// baseline, and whole-machine configurations composed of them.
//
// The model is deliberately simple — a two-parameter roofline per node
// (peak flop rate for vectorizable work, scalar rate for serial work,
// memory bandwidth for streaming work) — because every quantitative
// claim in the paper depends only on those ratios: many-core nodes win
// on parallel throughput per watt, multi-core nodes win on scalar
// speed.
package machine

import (
	"fmt"

	"repro/internal/sim"
)

// NodeKind labels the node classes of the DEEP system.
type NodeKind int

// The node classes used across the experiments.
const (
	ClusterNode NodeKind = iota // Xeon-class multi-core host
	BoosterNode                 // Xeon Phi (KNC)-class many-core
	GPUNode                     // host + PCIe-attached GPU (baseline)
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case ClusterNode:
		return "cluster-node"
	case BoosterNode:
		return "booster-node"
	case GPUNode:
		return "gpu-node"
	default:
		return fmt.Sprintf("node-kind-%d", int(k))
	}
}

// PowerState is one of the node's discrete power states. The energy
// layer accumulates joules as components publish state transitions
// into an energy.Recorder while simulation events fire.
type PowerState int

// The node power states, ordered by draw.
const (
	// PowerSleep is the deep-sleep (power-gated) state: the node is
	// unavailable for work and wakes only after WakeLatency.
	PowerSleep PowerState = iota
	// PowerIdle is powered-on but doing no work.
	PowerIdle
	// PowerBusy is executing; draw is PeakWatts (or Power(u) for a
	// partially utilised node).
	PowerBusy
	// NumPowerStates sizes per-state accounting arrays.
	NumPowerStates
)

// String implements fmt.Stringer.
func (s PowerState) String() string {
	switch s {
	case PowerSleep:
		return "sleep"
	case PowerIdle:
		return "idle"
	case PowerBusy:
		return "busy"
	default:
		return fmt.Sprintf("power-state-%d", int(s))
	}
}

// NodeModel is the analytic performance/power model of one node.
type NodeModel struct {
	Kind NodeKind
	// Cores is the number of physical cores (hardware contexts for
	// KNC are folded into PeakFlops).
	Cores int
	// ScalarGFlops is the single-thread scalar rate, governing serial
	// code sections (GFlop/s).
	ScalarGFlops float64
	// PeakGFlops is the full-node peak for vectorized parallel kernels
	// (GFlop/s).
	PeakGFlops float64
	// MemBandwidth is the streaming memory bandwidth (bytes/s).
	MemBandwidth float64
	// IdleWatts and PeakWatts bound the node's power draw; actual draw
	// interpolates linearly with utilisation.
	IdleWatts float64
	PeakWatts float64
	// SleepWatts is the deep-sleep (power-gated) draw; at most
	// IdleWatts.
	SleepWatts float64
	// WakeLatency is the sleep -> idle/busy transition time: a
	// power-gated booster is not instantly available, which is the
	// latency/energy trade the gating scheduler exposes.
	WakeLatency sim.Time
	// SleepLatency is the idle -> sleep transition time.
	SleepLatency sim.Time
}

// Validate reports whether the model is self-consistent.
func (m *NodeModel) Validate() error {
	if m.Cores <= 0 {
		return fmt.Errorf("machine: %v has %d cores", m.Kind, m.Cores)
	}
	if m.ScalarGFlops <= 0 || m.PeakGFlops <= 0 || m.MemBandwidth <= 0 {
		return fmt.Errorf("machine: %v has non-positive rates", m.Kind)
	}
	if m.PeakGFlops < m.ScalarGFlops {
		return fmt.Errorf("machine: %v peak %.1f below scalar %.1f",
			m.Kind, m.PeakGFlops, m.ScalarGFlops)
	}
	if m.IdleWatts < 0 || m.PeakWatts < m.IdleWatts {
		return fmt.Errorf("machine: %v has inconsistent power bounds", m.Kind)
	}
	if m.SleepWatts < 0 || m.SleepWatts > m.IdleWatts {
		return fmt.Errorf("machine: %v sleep draw %.1f W outside [0, idle %.1f W]",
			m.Kind, m.SleepWatts, m.IdleWatts)
	}
	if m.WakeLatency < 0 || m.SleepLatency < 0 {
		return fmt.Errorf("machine: %v has negative power-state transition latency", m.Kind)
	}
	return nil
}

// StateWatts returns the draw in the given power state: SleepWatts,
// IdleWatts, or PeakWatts. Partially utilised busy nodes use Power.
func (m *NodeModel) StateWatts(s PowerState) float64 {
	switch s {
	case PowerSleep:
		return m.SleepWatts
	case PowerIdle:
		return m.IdleWatts
	default:
		return m.PeakWatts
	}
}

// Kernel characterises one unit of computational work for the model.
type Kernel struct {
	// Flops is the floating-point operation count.
	Flops float64
	// Bytes is the main-memory traffic.
	Bytes float64
	// ParallelFraction is the Amdahl fraction that can use all cores
	// and vector units; the remainder runs at scalar speed on one core.
	ParallelFraction float64
	// VectorEfficiency discounts PeakGFlops for imperfectly vectorized
	// code (0..1]. Zero means 1.
	VectorEfficiency float64
}

// Time returns the modelled execution time of k on node m using p
// processes/threads on the node (capped at Cores). The parallel part
// runs at min(compute roofline, memory roofline); the serial part at
// scalar speed.
func (m *NodeModel) Time(k Kernel, p int) sim.Time {
	if p < 1 {
		p = 1
	}
	if p > m.Cores {
		p = m.Cores
	}
	veff := k.VectorEfficiency
	if veff <= 0 {
		veff = 1
	}
	pf := k.ParallelFraction
	if pf < 0 {
		pf = 0
	}
	if pf > 1 {
		pf = 1
	}
	// Parallel phase: p cores share of peak, bounded by memory.
	parFlops := k.Flops * pf
	parRate := m.PeakGFlops * 1e9 * veff * float64(p) / float64(m.Cores)
	tPar := 0.0
	if parFlops > 0 {
		tPar = parFlops / parRate
	}
	if k.Bytes > 0 {
		tMem := k.Bytes * pf / m.MemBandwidth
		if tMem > tPar {
			tPar = tMem
		}
	}
	// Serial phase at scalar speed (plus its memory traffic share).
	serFlops := k.Flops * (1 - pf)
	tSer := 0.0
	if serFlops > 0 {
		tSer = serFlops / (m.ScalarGFlops * 1e9)
	}
	if k.Bytes > 0 && pf < 1 {
		tMemSer := k.Bytes * (1 - pf) / m.MemBandwidth
		if tMemSer > tSer {
			tSer = tMemSer
		}
	}
	return sim.FromSeconds(tPar + tSer)
}

// Power returns the draw at the given utilisation in [0,1].
func (m *NodeModel) Power(utilisation float64) float64 {
	if utilisation < 0 {
		utilisation = 0
	}
	if utilisation > 1 {
		utilisation = 1
	}
	return m.IdleWatts + utilisation*(m.PeakWatts-m.IdleWatts)
}

// Period-plausible 2013 node models. The ratios, not the absolute
// numbers, carry the experiments:
//   - Xeon: fast scalar (few fast cores), ~0.5 GFlop/W.
//   - KNC: slow scalar, high parallel peak, ~5 GFlop/W at the card
//     level (the paper's "energy efficient: 5 GFlop/W" claim).
//   - GPU node: high peak but not autonomous (needs the host).
var (
	// Xeon is a dual-socket Sandy Bridge-class cluster node.
	Xeon = NodeModel{
		Kind:         ClusterNode,
		Cores:        16,
		ScalarGFlops: 5.0,
		PeakGFlops:   332.8, // 16 cores * 2.6 GHz * 8 flops/cycle
		MemBandwidth: 80 * 1e9,
		IdleWatts:    120,
		PeakWatts:    350,
		SleepWatts:   30, // package C6 + spinning fans/VRs
		WakeLatency:  2 * sim.Millisecond,
		SleepLatency: 200 * sim.Microsecond,
	}
	// KNC is a Xeon Phi 5110P-class booster node (card + minimal
	// carrier infrastructure).
	KNC = NodeModel{
		Kind:         BoosterNode,
		Cores:        60,
		ScalarGFlops: 1.0, // in-order core, ~1 GHz effective scalar
		PeakGFlops:   1010,
		MemBandwidth: 160 * 1e9,
		IdleWatts:    90,
		PeakWatts:    245, // card + board: ~5 GFlop/W within DEEP envelope
		SleepWatts:   20,  // card PCIe-D3-style gate; carrier stays on
		WakeLatency:  10 * sim.Millisecond,
		SleepLatency: 500 * sim.Microsecond,
	}
	// XeonGPU is a cluster node with one PCIe GPU (K20-class): the
	// "cluster with accelerators" baseline.
	XeonGPU = NodeModel{
		Kind:         GPUNode,
		Cores:        16,
		ScalarGFlops: 5.0,
		PeakGFlops:   1170, // K20 DP
		MemBandwidth: 200 * 1e9,
		IdleWatts:    160,
		PeakWatts:    575,
		SleepWatts:   45, // host C6 + GPU D3
		WakeLatency:  5 * sim.Millisecond,
		SleepLatency: 300 * sim.Microsecond,
	}
)
