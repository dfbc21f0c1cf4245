package deep

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/expt"
)

// Spec is the one description of a run: exactly one of Experiment (a
// registry id) or Workload (a custom run, optionally on a custom
// Machine) plus the cross-cutting run knobs. It is the JSON body deepd
// accepts, what deeprun's flags fill, and what Key hashes. The zero
// value of every knob means "the published default", so Normalize
// rewrites a spec into a canonical form: two specs for the same
// simulation share one content key whichever defaults they spelled
// out.
type Spec struct {
	// Experiment runs one registered experiment (E01.., A01..).
	Experiment string `json:"experiment,omitempty"`
	// Workload runs a custom workload; Machine customises the modelled
	// system it runs on (nil: the default 8+32-node machine).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	Machine  *MachineSpec  `json:"machine,omitempty"`

	// Seed, Scale, Fidelity and Energy are the Runner knobs of the same
	// names; zero values keep published behaviour. Fidelity matters to
	// experiment and traffic runs only; Normalize drops it from the
	// other workloads' specs.
	Seed     uint64  `json:"seed,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Fidelity string  `json:"fidelity,omitempty"`
	Energy   bool    `json:"energy,omitempty"`
	// Domains is the parallel-kernel domain count (0 or 1: the exact
	// sequential kernel; negative: GOMAXPROCS, resolved by Normalize so
	// the key names the actual K) for experiment and traffic runs; the
	// MPI workloads, cholesky and jobs compute the same result at any K,
	// and Normalize drops it from their specs. MaxNodes lifts or lowers
	// experiment sweep ceilings (experiment runs only).
	Domains int `json:"domains,omitempty"`
	// MaxWindow caps adaptive window widening on the partitioned
	// kernel; 0 or 1 keeps fixed windows. It applies where Domains does.
	MaxWindow int `json:"max_window,omitempty"`
	MaxNodes  int `json:"max_nodes,omitempty"`
	// Trace records a Chrome trace attachment; MetricsEveryS samples a
	// metrics-CSV attachment every that many virtual seconds. Both are
	// part of the content key (they change what the run produces).
	Trace         bool    `json:"trace,omitempty"`
	MetricsEveryS float64 `json:"metrics_every_s,omitempty"`

	// DeadlineS bounds the run's wall-clock time in seconds (zero: the
	// server default). Deadlines do not change what a run computes, so
	// they are not part of the content key.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// MachineSpec is the serialisable form of the NewMachine options a
// custom workload run can set. Zero values keep NewMachine defaults.
type MachineSpec struct {
	ClusterNodes   int   `json:"cluster_nodes,omitempty"`
	BoosterNodes   int   `json:"booster_nodes,omitempty"`
	BoosterTorus   []int `json:"booster_torus,omitempty"` // [x, y, z]
	ClusterRanks   int   `json:"cluster_ranks,omitempty"`
	BoosterWorkers int   `json:"booster_workers,omitempty"`
	ModelCompute   bool  `json:"model_compute,omitempty"`

	Faults *FaultPlan `json:"faults,omitempty"`

	PowerGate    bool        `json:"power_gate,omitempty"`
	WakeS        float64     `json:"wake_s,omitempty"`
	ClusterPower *PowerModel `json:"cluster_power,omitempty"`
	BoosterPower *PowerModel `json:"booster_power,omitempty"`
}

// WorkloadSpec names and parameterises one workload: cholesky | spmv
// | stencil | nbody | jobs | traffic.
type WorkloadSpec struct {
	Kind string `json:"kind"`

	// Cholesky / NBody size, tile size, OmpSs workers, steps.
	N        int `json:"n,omitempty"`
	TileSize int `json:"tile_size,omitempty"`
	Workers  int `json:"workers,omitempty"`
	Steps    int `json:"steps,omitempty"`
	// Grid workloads (spmv, stencil).
	NX    int `json:"nx,omitempty"`
	NY    int `json:"ny,omitempty"`
	Iters int `json:"iters,omitempty"`

	// Execution environment.
	Ranks          int     `json:"ranks,omitempty"`
	PlaceOnBooster bool    `json:"place_on_booster,omitempty"`
	Tol            float64 `json:"tol,omitempty"`

	// Scheduled-jobs parameters.
	Jobs             []Job          `json:"jobs,omitempty"`
	Dynamic          bool           `json:"dynamic,omitempty"`
	Contiguous       bool           `json:"contiguous,omitempty"`
	BoostersPerOwner int            `json:"boosters_per_owner,omitempty"`
	Ckpt             *Checkpointing `json:"ckpt,omitempty"`

	// Torus-traffic parameters (the parallel-kernel exerciser).
	Messages int     `json:"messages,omitempty"`
	MsgBytes int     `json:"msg_bytes,omitempty"`
	WindowMS float64 `json:"window_ms,omitempty"`
}

// Normalize errors that name something the spec cannot run; every other
// Normalize error is a plain invalid value. Match them with errors.Is.
var (
	ErrUnknownExperiment = errors.New("deep: unknown experiment")
	ErrUnknownWorkload   = errors.New("deep: unknown workload")
)

// runSettings is the "run" object of a content key: the Runner knobs
// in canonical form, which Normalize and the Runner's store key both
// write into a spec with setRun.
type runSettings struct {
	Seed      uint64  `json:"seed,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	Fidelity  string  `json:"fidelity,omitempty"`
	Energy    bool    `json:"energy,omitempty"`
	Domains   int     `json:"domains,omitempty"`
	MaxWindow int     `json:"max_window,omitempty"`
	MaxNodes  int     `json:"max_nodes,omitempty"`
}

// canonical writes every default as its zero value: scale 1, the
// "default" fidelity, one domain, fixed windows and no node ceiling all
// encode as absent. A negative domain count resolves to GOMAXPROCS, so
// the key names the K the run uses.
func (r runSettings) canonical() runSettings {
	if r.Scale == 1 {
		r.Scale = 0
	}
	if r.Fidelity == DefaultFidelity.String() {
		r.Fidelity = ""
	}
	r.Domains, r.MaxWindow = expt.Kernel(r.Domains, r.MaxWindow)
	if r.Domains == 1 {
		r.Domains = 0
	}
	if r.MaxWindow == 1 {
		r.MaxWindow = 0
	}
	r.MaxNodes = max(r.MaxNodes, 0)
	return r
}

// run returns the spec's run knobs as they stand.
func (s *Spec) run() runSettings {
	return runSettings{Seed: s.Seed, Scale: s.Scale, Fidelity: s.Fidelity, Energy: s.Energy,
		Domains: s.Domains, MaxWindow: s.MaxWindow, MaxNodes: s.MaxNodes}
}

// setRun writes run knobs into the spec's fields.
func (s *Spec) setRun(r runSettings) {
	s.Seed, s.Scale, s.Fidelity, s.Energy = r.Seed, r.Scale, r.Fidelity, r.Energy
	s.Domains, s.MaxWindow, s.MaxNodes = r.Domains, r.MaxWindow, r.MaxNodes
}

// Normalize validates the spec and rewrites it into canonical form:
// run knobs canonicalised, workload defaults filled in explicitly, the
// booster node count filled from the torus. A workload spec's machine
// is built, so every NewMachine rule is checked here rather than when
// the run starts. After Normalize, semantically identical specs are
// structurally identical, and normalising again changes nothing.
func (s *Spec) Normalize() error {
	switch {
	case s.Experiment == "" && s.Workload == nil:
		return errors.New("deep: spec needs an experiment id or a workload")
	case s.Experiment != "" && s.Workload != nil:
		return errors.New("deep: spec has both an experiment and a workload; submit one per run")
	case s.Experiment != "" && s.Machine != nil:
		return errors.New("deep: experiments run on each experiment's own machines; machine customisation needs a workload")
	}
	fid, err := ParseFidelity(s.Fidelity)
	switch {
	case err != nil:
		return fmt.Errorf("deep: spec: %w", err)
	case s.Scale < 0:
		return fmt.Errorf("deep: negative scale %v", s.Scale)
	case s.MaxNodes < 0:
		return fmt.Errorf("deep: negative max_nodes %d", s.MaxNodes)
	case s.MaxWindow < 0:
		return fmt.Errorf("deep: negative max_window %d", s.MaxWindow)
	case s.MetricsEveryS < 0:
		return fmt.Errorf("deep: negative metrics sampling interval %v s", s.MetricsEveryS)
	case s.DeadlineS < 0:
		return fmt.Errorf("deep: negative deadline %v s", s.DeadlineS)
	}
	s.Fidelity = fid.String()
	s.setRun(s.run().canonical())

	if s.Experiment != "" {
		if _, ok := expt.Get(s.Experiment); !ok {
			return fmt.Errorf("%w %q", ErrUnknownExperiment, s.Experiment)
		}
		return nil
	}
	if s.MaxNodes != 0 {
		return errors.New("deep: max_nodes lifts experiment sweep ceilings; workloads size their own machines")
	}
	if s.Workload.Kind != "traffic" {
		// Only TorusTraffic reads Machine.Domains, MaxWindow and
		// fidelity; every other workload computes the same result at any
		// K and fidelity, so the knobs must not split its content key.
		s.Domains, s.MaxWindow, s.Fidelity = 0, 0, ""
	}
	if err := s.Workload.normalize(); err != nil {
		return err
	}
	m := s.Machine
	if m != nil && len(m.BoosterTorus) != 0 && len(m.BoosterTorus) != 3 {
		return fmt.Errorf("deep: booster_torus wants [x, y, z], got %v", m.BoosterTorus)
	}
	env, _, err := s.Build()
	if err != nil {
		return err
	}
	if m != nil && len(m.BoosterTorus) == 3 {
		if n := env.Machine.BoosterNodes(); m.BoosterNodes != n {
			if m.BoosterNodes != 0 {
				return fmt.Errorf("deep: booster_nodes %d contradicts booster_torus %v (= %d nodes)",
					m.BoosterNodes, m.BoosterTorus, n)
			}
			m.BoosterNodes = n
		}
	}
	return nil
}

// normalize fills the per-kind defaults the workload implementations
// apply, so defaulted and explicit specs hash the same, and rejects
// unknown kinds and invalid parameters.
func (w *WorkloadSpec) normalize() error {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	switch w.Kind {
	case "cholesky":
		def(&w.N, 64)
		def(&w.TileSize, 16)
		def(&w.Workers, 8)
		if w.N%w.TileSize != 0 {
			return fmt.Errorf("deep: cholesky tile size %d does not divide n %d", w.TileSize, w.N)
		}
	case "spmv":
		def(&w.NX, 32)
		def(&w.NY, 32)
		def(&w.Iters, 10)
		if w.NX > math.MaxInt/w.NY {
			return fmt.Errorf("deep: spmv grid %dx%d overflows int", w.NX, w.NY)
		}
	case "stencil":
		def(&w.NX, 64)
		def(&w.NY, 64)
		def(&w.Iters, 20)
		if w.NX < 3 || w.NY < 3 || w.NX > math.MaxInt/w.NY {
			return fmt.Errorf("deep: stencil grid %dx%d is under 3x3 or overflows int", w.NX, w.NY)
		}
	case "nbody":
		def(&w.N, 64)
		def(&w.Steps, 10)
	case "jobs":
		if len(w.Jobs) == 0 {
			return errors.New("deep: jobs workload needs a non-empty job list")
		}
		for i, j := range w.Jobs {
			if j.Arrival < 0 || j.Duration <= 0 || j.Boosters < 1 {
				return fmt.Errorf("deep: job %d invalid (arrival %v s, duration %v s, %d boosters)",
					i, j.Arrival, j.Duration, j.Boosters)
			}
		}
		if c := w.Ckpt; c != nil && (c.Interval < 0 || c.Write < 0 || c.Restore < 0 || c.IOWatts < 0) {
			return errors.New("deep: checkpoint spec has negative parameters")
		}
		// The run's own rules, on the model it would build: a spec that
		// fails them would otherwise panic inside the scheduler.
		if err := w.Ckpt.Validate(); err != nil {
			return fmt.Errorf("deep: checkpoint spec: %w", err)
		}
	case "traffic":
		def(&w.Messages, 4096)
		def(&w.MsgBytes, 2048)
		if w.WindowMS == 0 {
			w.WindowMS = 1
		}
		if _, err := trafficWindow(w.WindowMS); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("%w: workload spec needs a kind", ErrUnknownWorkload)
	default:
		return fmt.Errorf("%w kind %q (want cholesky, spmv, stencil, nbody, jobs or traffic)", ErrUnknownWorkload, w.Kind)
	}
	if w.Ranks < 0 {
		return fmt.Errorf("deep: negative rank count %d", w.Ranks)
	}
	return nil
}

// Key returns the spec's content address: everything that determines
// what the run computes and which artifacts it records, and nothing
// else (deadlines are scheduling hints). Normalize the spec first, so
// that defaulted and explicit forms coincide.
func (s *Spec) Key() (string, error) {
	v := 1
	if w := s.Workload; w != nil && (w.Kind == "cholesky" || w.Kind == "traffic") {
		v = 2 // v1: wall-clock cholesky runtime, queued-closure traffic pool hit rate
	}
	return ContentHash(struct {
		V          int           `json:"v"` // schema version
		Experiment string        `json:"experiment,omitempty"`
		Workload   *WorkloadSpec `json:"workload,omitempty"`
		Machine    *MachineSpec  `json:"machine,omitempty"`
		Run        runSettings   `json:"run"`
		Trace      bool          `json:"trace,omitempty"`
		MetricsS   float64       `json:"metrics_every_s,omitempty"`
	}{v, s.Experiment, s.Workload, s.Machine, s.run(), s.Trace, s.MetricsEveryS})
}

// Build materialises the machine, execution environment and workload
// of a workload spec; experiment specs run through a Runner instead.
func (s *Spec) Build() (*Env, Workload, error) {
	w := s.Workload
	if w == nil {
		return nil, nil, errors.New("deep: spec has no workload to build (experiments run through a Runner)")
	}
	var wl Workload
	switch w.Kind {
	case "cholesky":
		wl = Cholesky{N: w.N, TileSize: w.TileSize, Workers: w.Workers}
	case "spmv":
		wl = SpMV{NX: w.NX, NY: w.NY, Iters: w.Iters}
	case "stencil":
		wl = Stencil{NX: w.NX, NY: w.NY, Iters: w.Iters}
	case "nbody":
		wl = NBody{N: w.N, Steps: w.Steps}
	case "jobs":
		wl = ScheduledJobs{Jobs: w.Jobs, Dynamic: w.Dynamic, Contiguous: w.Contiguous,
			BoostersPerOwner: w.BoostersPerOwner, Ckpt: w.Ckpt}
	case "traffic":
		wl = TorusTraffic{Messages: w.Messages, Bytes: w.MsgBytes, WindowMS: w.WindowMS}
	default:
		return nil, nil, fmt.Errorf("%w kind %q", ErrUnknownWorkload, w.Kind)
	}
	opts, err := s.options()
	if err != nil {
		return nil, nil, err
	}
	m, err := NewMachine(opts...)
	if err != nil {
		return nil, nil, err
	}
	env := m.NewEnv()
	if w.Ranks > 0 {
		env.Ranks = w.Ranks
	}
	env.PlaceOnBooster = w.PlaceOnBooster
	env.Tol = w.Tol
	return env, wl, nil
}

// options converts the machine spec plus the run knobs into
// NewMachine options.
func (s *Spec) options() ([]Option, error) {
	fid, err := ParseFidelity(s.Fidelity)
	if err != nil {
		return nil, fmt.Errorf("deep: spec: %w", err)
	}
	opts := []Option{WithFidelity(fid)}
	m := s.Machine
	if m == nil {
		m = &MachineSpec{}
	}
	if m.ClusterNodes > 0 {
		opts = append(opts, WithClusterNodes(m.ClusterNodes))
	}
	if t := m.BoosterTorus; len(t) == 3 {
		opts = append(opts, WithBoosterTorus(t[0], t[1], t[2]))
	} else if m.BoosterNodes > 0 {
		opts = append(opts, WithBoosterNodes(m.BoosterNodes))
	}
	if m.ClusterRanks > 0 {
		opts = append(opts, WithClusterRanks(m.ClusterRanks))
	}
	if m.BoosterWorkers > 0 {
		opts = append(opts, WithBoosterWorkers(m.BoosterWorkers))
	}
	if m.ModelCompute {
		opts = append(opts, WithModelCompute())
	}
	if m.Faults != nil {
		opts = append(opts, WithFaultInjector(*m.Faults))
	}
	if m.PowerGate {
		opts = append(opts, WithPowerGating(m.WakeS))
	}
	if m.ClusterPower != nil {
		opts = append(opts, WithClusterPowerModel(*m.ClusterPower))
	}
	if m.BoosterPower != nil {
		opts = append(opts, WithBoosterPowerModel(*m.BoosterPower))
	}
	if s.Seed != 0 {
		opts = append(opts, WithSeed(s.Seed))
	}
	if s.Energy {
		opts = append(opts, WithEnergyMetering())
	}
	if s.Domains != 0 {
		opts = append(opts, WithDomains(s.Domains))
	}
	if s.MaxWindow > 1 {
		opts = append(opts, WithMaxWindow(s.MaxWindow))
	}
	if s.Trace {
		opts = append(opts, WithTracing())
	}
	if s.MetricsEveryS > 0 {
		opts = append(opts, WithMetrics(s.MetricsEveryS))
	}
	return opts, nil
}
