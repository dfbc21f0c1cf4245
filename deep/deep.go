// Package deep is the public SDK of the DEEP Cluster-Booster
// reproduction (Eicker, Lippert, Suarez, Moschny — ICPP/HUCAA 2013)
// and the one supported way to build and run everything in this
// repository.
//
// Three concepts compose:
//
//   - Machine — an immutable description of a modelled DEEP system
//     (cluster/booster node counts, booster torus shape, offload
//     worker group, fault injection), built with NewMachine and
//     functional options.
//   - Workload — anything that can execute on a Machine and verify
//     itself: the four applications (Cholesky, SpMV, Stencil, NBody),
//     kernel offloading (Offload), and booster job scheduling
//     (ScheduledJobs). Every workload runs through
//     Run(ctx, *Env) (*Result, error).
//   - Runner — the context-aware parallel driver of the experiment
//     registry (every table/figure of the paper reproduction),
//     producing a Report that pluggable sinks render as aligned
//     tables, CSV, or JSON.
//
// Spec is the serialisable description of one run — an experiment id,
// or a Workload on a Machine, plus the run knobs — that deepd decodes,
// deeprun's flags fill, and Spec.Key content-addresses. Spec.Run
// encodes a run as an Output, the one record deepd, deeprun and a
// Runner's resumable sweep store under that key.
//
// A minimal session:
//
//	m, _ := deep.NewMachine(deep.WithBoosterNodes(27))
//	res, err := deep.Run(ctx, m.NewEnv(), deep.SpMV{NX: 32, NY: 32, Iters: 10})
//	...
//	rep, err := (&deep.Runner{Parallel: 8}).Run(ctx, "E01", "E04")
//	deep.JSONSink{}.Write(os.Stdout, rep)
package deep

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/cbp"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fidelity selects the fabric transfer model for simulated networks:
// how literally the event-driven fabrics simulate each message.
type Fidelity int

// The fidelity levels WithFidelity and Runner.Fidelity accept.
const (
	// DefaultFidelity keeps every component's own default: the exact
	// packet model everywhere except the E15 weak-scaling sweep, which
	// defaults to Flow.
	DefaultFidelity Fidelity = iota
	// Packet simulates every packet of every message across every
	// link of its route — exact, and the reference the golden tables
	// are pinned to.
	Packet
	// Flow collapses each message into one flow-level completion event
	// using per-link reservations: exact on uncontended routes,
	// message-granular FIFO under contention, and the only way to
	// simulate 100k-node machines in interactive time.
	Flow
)

// String implements fmt.Stringer.
func (f Fidelity) String() string { return fabric.Fidelity(f).String() }

// ParseFidelity converts a flag value ("default", "packet", "flow")
// into a Fidelity. The legacy name "auto" parses as Packet.
func ParseFidelity(s string) (Fidelity, error) {
	f, err := fabric.ParseFidelity(s)
	return Fidelity(f), err
}

// Machine is an immutable description of one modelled DEEP system.
// Build it with NewMachine; the zero value is not usable.
type Machine struct {
	clusterNodes   int
	boosterNodes   int
	torusX         int // 0 = near-cubic auto shape
	torusY, torusZ int
	clusterRanks   int
	boosterWorkers int
	seed           uint64
	modelCompute   bool
	fidelity       Fidelity
	faults         *FaultPlan
	energy         bool
	powerGate      bool
	wakeSeconds    float64
	clusterPower   *PowerModel
	boosterPower   *PowerModel
	tracing        bool
	metricsEvery   float64
	domains        int
	maxWindow      int
}

// ErrPartitionUnsupported marks machine configurations the partitioned
// kernel (WithDomains(k > 1)) cannot honour; match it with errors.Is
// to turn a construction failure into a clear submit-time message.
var ErrPartitionUnsupported = fabric.ErrPartitionUnsupported

// PowerModel overrides a node class's electrical parameters. Zero
// fields keep the built-in period-plausible value of the underlying
// node model (Xeon for the cluster side, KNC for the booster side).
// The JSON tags are its form in a MachineSpec.
type PowerModel struct {
	// SleepWatts, IdleWatts and PeakWatts bound the node's draw in the
	// three power states (sleep <= idle <= peak).
	SleepWatts float64 `json:"sleep_watts,omitempty"`
	IdleWatts  float64 `json:"idle_watts,omitempty"`
	PeakWatts  float64 `json:"peak_watts,omitempty"`
	// WakeLatency is the sleep -> busy transition time in seconds —
	// what a power-gated booster pays before it can compute.
	WakeLatency float64 `json:"wake_latency_s,omitempty"`
}

// apply overlays the non-zero fields onto a node model.
func (p *PowerModel) apply(m *machine.NodeModel) {
	if p == nil {
		return
	}
	if p.SleepWatts > 0 {
		m.SleepWatts = p.SleepWatts
	}
	if p.IdleWatts > 0 {
		m.IdleWatts = p.IdleWatts
	}
	if p.PeakWatts > 0 {
		m.PeakWatts = p.PeakWatts
	}
	if p.WakeLatency > 0 {
		m.WakeLatency = sim.FromSeconds(p.WakeLatency)
	}
}

// FaultPlan configures the machine's fault injector: booster nodes
// fail and are repaired while workloads run. A nil plan (the default)
// models a perfect machine. The JSON tags are its form in a
// MachineSpec.
type FaultPlan struct {
	// NodeMTBF is the per-node mean time between failures in seconds;
	// zero disables injection.
	NodeMTBF float64 `json:"node_mtbf_s,omitempty"`
	// WeibullShape, when non-zero, draws times-to-failure from a
	// Weibull distribution with this shape (shape < 1 models infant
	// mortality); zero uses the exponential distribution.
	WeibullShape float64 `json:"weibull_shape,omitempty"`
	// Repair is the fixed node repair time in seconds.
	Repair float64 `json:"repair_s,omitempty"`
	// Horizon bounds the injection window in seconds; zero means 600.
	Horizon float64 `json:"horizon_s,omitempty"`
	// Seed seeds the failure trace; zero uses the machine seed.
	Seed uint64 `json:"seed,omitempty"`
}

// Option configures a Machine under construction.
type Option func(*Machine)

// WithClusterNodes sets the number of Xeon-class Cluster Nodes on the
// InfiniBand fat tree (default 8).
func WithClusterNodes(n int) Option { return func(m *Machine) { m.clusterNodes = n } }

// WithBoosterNodes sets the number of KNC-class Booster Nodes on the
// EXTOLL torus (default 32); the torus takes a near-cubic shape.
func WithBoosterNodes(n int) Option {
	return func(m *Machine) { m.boosterNodes = n; m.torusX, m.torusY, m.torusZ = 0, 0, 0 }
}

// WithBoosterTorus pins the booster EXTOLL topology to an explicit
// x*y*z 3D torus (and therefore the booster node count to x*y*z).
func WithBoosterTorus(x, y, z int) Option {
	return func(m *Machine) {
		m.boosterNodes = x * y * z
		m.torusX, m.torusY, m.torusZ = x, y, z
	}
}

// WithClusterRanks sets the default number of application (main-part)
// processes an Env starts with (default 2).
func WithClusterRanks(n int) Option { return func(m *Machine) { m.clusterRanks = n } }

// WithBoosterWorkers sets the size of the spawned booster worker
// group Offload workloads use (default 8, clamped to the booster
// node count).
func WithBoosterWorkers(n int) Option { return func(m *Machine) { m.boosterWorkers = n } }

// WithSeed sets the machine's base RNG seed (default 42); per-run
// seeds derive from it unless an Env overrides them.
func WithSeed(seed uint64) Option { return func(m *Machine) { m.seed = seed } }

// WithModelCompute charges offloaded kernels the KNC node-model
// compute time, so virtual clocks reflect computation as well as
// communication.
func WithModelCompute() Option { return func(m *Machine) { m.modelCompute = true } }

// WithFidelity selects the machine's fabric simulation fidelity:
// Packet (exact, the default) or Flow (flow-level fast path for
// 100k-node scale).
func WithFidelity(f Fidelity) Option { return func(m *Machine) { m.fidelity = f } }

// WithFaultInjector attaches a fault plan to the machine; workloads
// that schedule booster jobs (ScheduledJobs) run under it.
func WithFaultInjector(p FaultPlan) Option {
	return func(m *Machine) { cp := p; m.faults = &cp }
}

// WithEnergyMetering makes every workload run publish power/energy
// telemetry and fill Result.Energy: node power states integrate over
// the virtual clock, fabrics charge per-byte transfer energy and the
// resilience layer charges checkpoint I/O. Off by default — unmetered
// results are byte-identical to previous releases.
func WithEnergyMetering() Option { return func(m *Machine) { m.energy = true } }

// WithPowerGating power-gates idle boosters: free booster nodes drop
// to the sleep state and a job allocated onto sleeping nodes pays the
// wake latency before compute starts. wakeSeconds overrides the node
// model's wake latency; 0 keeps it. Gating changes schedules (the
// energy/latency trade), so it is opt-in independently of metering.
func WithPowerGating(wakeSeconds float64) Option {
	return func(m *Machine) { m.powerGate = true; m.wakeSeconds = wakeSeconds }
}

// WithTracing records a virtual-time trace of every engine-backed
// workload run — job lifecycle spans from the scheduler, fault and
// checkpoint spans from the resilience layer, message spans from the
// fabric, power transitions from the energy layer — surfaced as
// Result.Trace in Chrome trace-event format (chrome://tracing). Off
// by default: untraced runs are byte-identical to previous releases.
func WithTracing() Option { return func(m *Machine) { m.tracing = true } }

// WithMetrics samples observability metrics (queue depth, free
// nodes, kernel event counters, ...) every sampleSeconds of virtual
// time into Result.Series. Sampling rides the engine's clock-advance
// probe, so it cannot perturb what the simulation computes. Zero or
// negative disables sampling.
func WithMetrics(sampleSeconds float64) Option {
	return func(m *Machine) { m.metricsEvery = sampleSeconds }
}

// WithDomains selects the simulation kernel for workloads that can
// partition the booster torus spatially (TorusTraffic): 0 or 1 (the
// default) runs one domain, the sequential kernel; k > 1 runs k domain
// engines — one goroutine each — under conservative window
// synchronization, with cross-domain messages merged deterministically
// at window boundaries. Output is byte-stable per fixed k, not across
// k. A negative value resolves to GOMAXPROCS at run time.
func WithDomains(k int) Option { return func(m *Machine) { m.domains = k } }

// WithMaxWindow caps adaptive window widening on the partitioned
// kernel: when a synchronization window closes without cross-domain
// traffic the next window deadline widens geometrically, up to mult
// times the fabric lookahead, and shrinks back to one lookahead as
// soon as cross traffic reappears. 0 or 1 (the default) keeps fixed
// windows. Output stays byte-stable per (domain count, cap) pair. The
// option has no effect on the sequential kernel.
func WithMaxWindow(mult int) Option { return func(m *Machine) { m.maxWindow = mult } }

// WithClusterPowerModel overrides the cluster-side (Xeon) electrical
// parameters.
func WithClusterPowerModel(p PowerModel) Option {
	return func(m *Machine) { cp := p; m.clusterPower = &cp }
}

// WithBoosterPowerModel overrides the booster-side (KNC) electrical
// parameters.
func WithBoosterPowerModel(p PowerModel) Option {
	return func(m *Machine) { cp := p; m.boosterPower = &cp }
}

// NewMachine builds a validated DEEP machine description.
func NewMachine(opts ...Option) (*Machine, error) {
	m := &Machine{
		clusterNodes: 8,
		boosterNodes: 32,
		clusterRanks: 2,
		seed:         42,
	}
	for _, o := range opts {
		o(m)
	}
	if x, y, z := m.torusX, m.torusY, m.torusZ; x != 0 || y != 0 || z != 0 {
		// WithBoosterTorus took x*y*z as the node count; it only holds if
		// every side is positive and the product fits an int.
		if x < 1 || y < 1 || z < 1 || y > math.MaxInt/x || z > math.MaxInt/(x*y) {
			return nil, fmt.Errorf("deep: invalid booster torus %dx%dx%d: sides must be positive and their product must fit an int",
				x, y, z)
		}
	}
	if m.boosterWorkers == 0 {
		// Default worker group: 8, clamped to the booster size.
		m.boosterWorkers = min(8, m.boosterNodes)
	}
	if m.clusterNodes < 1 || m.boosterNodes < 1 {
		return nil, fmt.Errorf("deep: machine needs at least one node per side, got %d cluster / %d booster",
			m.clusterNodes, m.boosterNodes)
	}
	if m.clusterRanks < 1 {
		return nil, fmt.Errorf("deep: machine needs at least one cluster rank, got %d", m.clusterRanks)
	}
	if m.boosterWorkers < 1 {
		return nil, fmt.Errorf("deep: machine needs at least one booster worker, got %d", m.boosterWorkers)
	}
	if m.boosterWorkers > m.boosterNodes {
		return nil, fmt.Errorf("deep: %d booster workers exceed %d booster nodes",
			m.boosterWorkers, m.boosterNodes)
	}
	if f := m.faults; f != nil {
		if f.NodeMTBF < 0 || f.Repair < 0 || f.Horizon < 0 || f.WeibullShape < 0 {
			return nil, fmt.Errorf("deep: fault plan has negative parameters: %+v", *f)
		}
		if m.Domains() > 1 {
			return nil, fmt.Errorf("deep: fault injection is %w: drop WithFaultInjector or run WithDomains(1)",
				ErrPartitionUnsupported)
		}
	}
	if m.maxWindow < 0 {
		return nil, fmt.Errorf("deep: negative adaptive-window cap %d", m.maxWindow)
	}
	if m.wakeSeconds < 0 {
		return nil, fmt.Errorf("deep: negative wake latency %v s", m.wakeSeconds)
	}
	if m.metricsEvery < 0 {
		return nil, fmt.Errorf("deep: negative metrics sampling interval %v s", m.metricsEvery)
	}
	for side, model := range map[string]machine.NodeModel{
		"cluster": m.clusterNodeModel(), "booster": m.boosterNodeModel(),
	} {
		if err := model.Validate(); err != nil {
			return nil, fmt.Errorf("deep: %s power model: %w", side, err)
		}
	}
	return m, nil
}

// clusterNodeModel returns the Xeon model with any power overrides.
func (m *Machine) clusterNodeModel() machine.NodeModel {
	model := machine.Xeon
	m.clusterPower.apply(&model)
	return model
}

// boosterNodeModel returns the KNC model with any power overrides.
func (m *Machine) boosterNodeModel() machine.NodeModel {
	model := machine.KNC
	m.boosterPower.apply(&model)
	return model
}

// EnergyMetered reports whether the machine publishes energy
// telemetry (WithEnergyMetering).
func (m *Machine) EnergyMetered() bool { return m.energy }

// Tracing reports whether the machine records virtual-time traces.
func (m *Machine) Tracing() bool { return m.tracing }

// MetricsEvery returns the metrics sampling cadence in virtual
// seconds (0 when sampling is off).
func (m *Machine) MetricsEvery() float64 { return m.metricsEvery }

// observer builds the machine's observability hub for one workload
// run; nil — the inert hub — when both tracing and metrics are off.
func (m *Machine) observer() *obs.Observer {
	return obs.New(m.tracing, sim.FromSeconds(m.metricsEvery))
}

// ClusterNodes returns the cluster side size.
func (m *Machine) ClusterNodes() int { return m.clusterNodes }

// BoosterNodes returns the booster side size.
func (m *Machine) BoosterNodes() int { return m.boosterNodes }

// BoosterWorkers returns the offload worker group size.
func (m *Machine) BoosterWorkers() int { return m.boosterWorkers }

// Seed returns the machine's base RNG seed.
func (m *Machine) Seed() uint64 { return m.seed }

// Fidelity returns the machine's fabric simulation fidelity.
func (m *Machine) Fidelity() Fidelity { return m.fidelity }

// Domains returns the effective simulation-kernel domain count: 1 for
// the sequential kernel, K > 1 for the partitioned kernel (negative
// configurations resolve to GOMAXPROCS).
func (m *Machine) Domains() int {
	if m.domains == 0 || m.domains == 1 {
		return 1
	}
	if m.domains < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return m.domains
}

// MaxWindow returns the adaptive-window widening cap (1 = fixed
// windows).
func (m *Machine) MaxWindow() int {
	if m.maxWindow < 2 {
		return 1
	}
	return m.maxWindow
}

// String summarises the machine configuration.
func (m *Machine) String() string {
	return fmt.Sprintf("deep machine: %d cluster nodes (fat tree) + %d booster nodes (torus), %d ranks, %d workers",
		m.clusterNodes, m.boosterNodes, m.clusterRanks, m.boosterWorkers)
}

// transport builds the Global-MPI cost model of this machine: cluster
// fat tree, booster torus, and the Booster Interface between them.
func (m *Machine) transport() *cbp.DeepTransport {
	return cbp.NewDeepTransport(m.clusterNodes, m.boosterNodes)
}

// NewEnv returns an execution environment with the machine's default
// rank count and seed; adjust the fields before running a workload.
func (m *Machine) NewEnv() *Env {
	return &Env{Machine: m, Ranks: m.clusterRanks, Seed: m.seed}
}

// Env is the execution environment a Workload runs in: which machine,
// how many Global-MPI ranks, which seed, and where the ranks live.
type Env struct {
	// Machine is the modelled system to run on.
	Machine *Machine
	// Ranks is the number of Global-MPI processes. With the default
	// cluster placement it must not exceed Machine.ClusterNodes();
	// booster placement wraps ranks over the booster nodes.
	Ranks int
	// Seed is the run's RNG seed (problem-data generation).
	Seed uint64
	// PlaceOnBooster places the ranks on booster nodes (EXTOLL costs)
	// instead of cluster nodes (InfiniBand costs).
	PlaceOnBooster bool
	// Tol, when non-zero, overrides each checked workload's built-in
	// verification tolerance. A negative value can never be met, so it
	// deterministically fails verification — the knob deeprun's -tol
	// flag and the failure-path regression tests use.
	Tol float64
}

// tol resolves the effective verification tolerance given a
// workload's built-in default.
func (e *Env) tol(def float64) float64 {
	if e == nil || e.Tol == 0 {
		return def
	}
	return e.Tol
}

// validate reports whether the environment can execute a workload.
func (e *Env) validate() error {
	if e == nil || e.Machine == nil {
		return fmt.Errorf("deep: workload run needs an Env built from a Machine (see Machine.NewEnv)")
	}
	if e.Ranks < 1 {
		return fmt.Errorf("deep: %d ranks", e.Ranks)
	}
	return nil
}
