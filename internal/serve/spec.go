package serve

import (
	"net/http"

	"repro/deep"
	"repro/internal/expt"
)

// JobSpec is the wire form of one simulation request: exactly one of
// Experiment (a registry id) or Workload (a custom run, optionally on
// a custom Machine) plus the cross-cutting run knobs. The zero value
// of every knob means "the published default", so specs normalise to
// a canonical form: two requests for the same simulation always hash
// to the same content address regardless of which defaults they
// spelled out.
type JobSpec struct {
	// Experiment runs one registered experiment (E01.., A01..).
	Experiment string `json:"experiment,omitempty"`
	// Workload runs a custom workload; Machine customises the modelled
	// system it runs on (nil: the default 8+32-node machine).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	Machine  *MachineSpec  `json:"machine,omitempty"`

	// Seed, Scale, Fidelity and Energy mirror expt.Spec / the Runner
	// knobs; zero values keep published behaviour.
	Seed     uint64  `json:"seed,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Fidelity string  `json:"fidelity,omitempty"`
	Energy   bool    `json:"energy,omitempty"`
	// Domains is the parallel-kernel domain count (0 or 1: the exact
	// sequential kernel; negative: the worker's GOMAXPROCS) for
	// experiment and traffic jobs; the MPI workloads, cholesky and jobs
	// ignore it, and normalize drops it from their specs. MaxNodes
	// lifts or lowers experiment sweep ceilings (experiment jobs only).
	// Both carry omitempty so pre-existing specs keep their content
	// addresses.
	Domains int `json:"domains,omitempty"`
	// MaxWindow caps adaptive window widening on the partitioned
	// kernel; 0 or 1 keeps fixed windows. It applies where Domains does.
	MaxWindow int `json:"max_window,omitempty"`
	MaxNodes  int `json:"max_nodes,omitempty"`
	// Trace records a Chrome trace attachment; MetricsEveryS samples a
	// metrics-CSV attachment every that many virtual seconds. Both are
	// part of the content address (they change what the job produces).
	Trace         bool    `json:"trace,omitempty"`
	MetricsEveryS float64 `json:"metrics_every_s,omitempty"`

	// DeadlineS bounds the job's wall-clock run time in seconds (zero:
	// the server default). Deadlines do not change what a job computes,
	// so they are excluded from the content address.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// MachineSpec is the wire form of the deep.Machine options a custom
// workload run can set. Zero values keep NewMachine defaults.
type MachineSpec struct {
	ClusterNodes   int   `json:"cluster_nodes,omitempty"`
	BoosterNodes   int   `json:"booster_nodes,omitempty"`
	BoosterTorus   []int `json:"booster_torus,omitempty"` // [x, y, z]
	ClusterRanks   int   `json:"cluster_ranks,omitempty"`
	BoosterWorkers int   `json:"booster_workers,omitempty"`
	ModelCompute   bool  `json:"model_compute,omitempty"`

	Faults *FaultSpec `json:"faults,omitempty"`

	PowerGate    bool       `json:"power_gate,omitempty"`
	WakeS        float64    `json:"wake_s,omitempty"`
	ClusterPower *PowerSpec `json:"cluster_power,omitempty"`
	BoosterPower *PowerSpec `json:"booster_power,omitempty"`
}

// FaultSpec mirrors deep.FaultPlan in wire form.
type FaultSpec struct {
	NodeMTBFS    float64 `json:"node_mtbf_s,omitempty"`
	WeibullShape float64 `json:"weibull_shape,omitempty"`
	RepairS      float64 `json:"repair_s,omitempty"`
	HorizonS     float64 `json:"horizon_s,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
}

// PowerSpec mirrors deep.PowerModel in wire form.
type PowerSpec struct {
	SleepWatts   float64 `json:"sleep_watts,omitempty"`
	IdleWatts    float64 `json:"idle_watts,omitempty"`
	PeakWatts    float64 `json:"peak_watts,omitempty"`
	WakeLatencyS float64 `json:"wake_latency_s,omitempty"`
}

// CkptSpec mirrors deep.Checkpointing in wire form.
type CkptSpec struct {
	IntervalS float64 `json:"interval_s,omitempty"`
	WriteS    float64 `json:"write_s,omitempty"`
	RestoreS  float64 `json:"restore_s,omitempty"`
	Buddy     bool    `json:"buddy,omitempty"`
	IOWatts   float64 `json:"io_watts,omitempty"`
}

// model returns the deep form of c, nil when c is.
func (c *CkptSpec) model() *deep.Checkpointing {
	if c == nil {
		return nil
	}
	return &deep.Checkpointing{
		Interval: c.IntervalS, Write: c.WriteS, Restore: c.RestoreS,
		Buddy: c.Buddy, IOWatts: c.IOWatts,
	}
}

// WorkloadSpec names and parameterises one workload, mirroring the
// deeprun CLI surface: cholesky | spmv | stencil | nbody | jobs |
// traffic.
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
	Jobs             []deep.Job `json:"jobs,omitempty"`
	Dynamic          bool       `json:"dynamic,omitempty"`
	Contiguous       bool       `json:"contiguous,omitempty"`
	BoostersPerOwner int        `json:"boosters_per_owner,omitempty"`
	Ckpt             *CkptSpec  `json:"ckpt,omitempty"`

	// Torus-traffic parameters (the parallel-kernel exerciser).
	Messages int     `json:"messages,omitempty"`
	MsgBytes int     `json:"msg_bytes,omitempty"`
	WindowMS float64 `json:"window_ms,omitempty"`
}

// invalidf is shorthand for a 400 validation error.
func invalidf(format string, args ...any) *Error {
	return errf(ErrInvalidRequest, http.StatusBadRequest, format, args...)
}

// exptSpec extracts the expt-layer run knobs — the config → spec
// round-trip the experiment path is built on.
func (s *JobSpec) exptSpec() expt.Spec {
	return expt.Spec{Seed: s.Seed, Scale: s.Scale, Fidelity: s.Fidelity, Energy: s.Energy,
		Domains: s.Domains, MaxWindow: s.MaxWindow, MaxNodes: s.MaxNodes}
}

// normalize validates the spec and rewrites it into canonical form:
// run knobs canonicalised through expt.Spec, workload and machine
// defaults filled in explicitly. After normalize, semantically
// identical requests are structurally identical.
func (s *JobSpec) normalize() error {
	switch {
	case s.Experiment == "" && s.Workload == nil:
		return invalidf("spec needs an experiment id or a workload")
	case s.Experiment != "" && s.Workload != nil:
		return invalidf("spec has both an experiment and a workload; submit one per job")
	case s.Experiment != "" && s.Machine != nil:
		return invalidf("experiment jobs run on each experiment's own machines; machine customisation needs a workload job")
	}
	// Canonicalise the run knobs through the expt wire form (this
	// validates the fidelity string and the scale).
	cfg, err := s.exptSpec().Config()
	if err != nil {
		return invalidf("%v", err)
	}
	canon := cfg.Spec()
	s.Seed, s.Scale, s.Fidelity, s.Energy = canon.Seed, canon.Scale, canon.Fidelity, canon.Energy
	s.Domains, s.MaxWindow, s.MaxNodes = canon.Domains, canon.MaxWindow, canon.MaxNodes
	if s.Workload != nil && s.Workload.Kind != "traffic" {
		// Only TorusTraffic reads Machine.Domains and MaxWindow; every
		// other workload computes the same result at any K, so the
		// knobs must not split its content key.
		s.Domains, s.MaxWindow = 0, 0
	}
	if s.Workload != nil && s.MaxNodes != 0 {
		return invalidf("max_nodes lifts experiment sweep ceilings; workload jobs size their own machines")
	}
	if s.MetricsEveryS < 0 {
		return invalidf("negative metrics sampling interval %v s", s.MetricsEveryS)
	}
	if s.DeadlineS < 0 {
		return invalidf("negative deadline %v s", s.DeadlineS)
	}
	if s.Experiment != "" {
		if _, ok := expt.Get(s.Experiment); !ok {
			return errf(ErrUnknownExperiment, http.StatusBadRequest,
				"unknown experiment %q (GET /v1/experiments lists the registry)", s.Experiment)
		}
		return nil
	}
	if err := s.Workload.normalize(); err != nil {
		return err
	}
	if s.Machine != nil {
		if err := s.Machine.normalize(); err != nil {
			return err
		}
	}
	// Building the machine exercises NewMachine's full validation, so
	// bad combinations fail at submit time, not in a worker.
	if _, _, err := s.buildEnv(); err != nil {
		return invalidf("%v", err)
	}
	return nil
}

// normalize fills the per-kind workload defaults (mirroring the
// workload implementations) so defaulted and explicit specs hash the
// same, and rejects unknown kinds and invalid parameters.
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
	case "spmv":
		def(&w.NX, 32)
		def(&w.NY, 32)
		def(&w.Iters, 10)
	case "stencil":
		def(&w.NX, 64)
		def(&w.NY, 64)
		def(&w.Iters, 20)
	case "nbody":
		def(&w.N, 64)
		def(&w.Steps, 10)
	case "jobs":
		if len(w.Jobs) == 0 {
			return invalidf("jobs workload needs a non-empty job list")
		}
		for i, j := range w.Jobs {
			if j.Arrival < 0 || j.Duration <= 0 || j.Boosters < 1 {
				return invalidf("job %d invalid (arrival %v s, duration %v s, %d boosters)",
					i, j.Arrival, j.Duration, j.Boosters)
			}
		}
		if c := w.Ckpt; c != nil && (c.IntervalS < 0 || c.WriteS < 0 || c.RestoreS < 0 || c.IOWatts < 0) {
			return invalidf("checkpoint spec has negative parameters")
		}
		// The run's own rules, on the model it would build: a spec that
		// fails them would otherwise panic inside the scheduler.
		if err := w.Ckpt.model().Validate(); err != nil {
			return invalidf("checkpoint spec: %v", err)
		}
	case "traffic":
		def(&w.Messages, 4096)
		def(&w.MsgBytes, 2048)
		if w.WindowMS < 0 {
			return invalidf("negative traffic window %v ms", w.WindowMS)
		}
		if w.WindowMS == 0 {
			w.WindowMS = 1
		}
	case "":
		return errf(ErrUnknownWorkload, http.StatusBadRequest, "workload spec needs a kind")
	default:
		return errf(ErrUnknownWorkload, http.StatusBadRequest,
			"unknown workload kind %q (want cholesky, spmv, stencil, nbody, jobs or traffic)", w.Kind)
	}
	if w.Ranks < 0 {
		return invalidf("negative rank count %d", w.Ranks)
	}
	return nil
}

// normalize reconciles the torus shape with the booster node count.
func (m *MachineSpec) normalize() error {
	if len(m.BoosterTorus) > 0 {
		if len(m.BoosterTorus) != 3 {
			return invalidf("booster_torus wants [x, y, z], got %v", m.BoosterTorus)
		}
		x, y, z := m.BoosterTorus[0], m.BoosterTorus[1], m.BoosterTorus[2]
		if x < 1 || y < 1 || z < 1 {
			return invalidf("booster_torus %v has non-positive dimensions", m.BoosterTorus)
		}
		if m.BoosterNodes != 0 && m.BoosterNodes != x*y*z {
			return invalidf("booster_nodes %d contradicts booster_torus %v (= %d nodes)",
				m.BoosterNodes, m.BoosterTorus, x*y*z)
		}
		m.BoosterNodes = x * y * z
	}
	return nil
}

// options converts the machine spec plus the job-level knobs into
// deep.NewMachine options.
func (s *JobSpec) options() []deep.Option {
	var opts []deep.Option
	m := s.Machine
	if m == nil {
		m = &MachineSpec{}
	}
	if m.ClusterNodes > 0 {
		opts = append(opts, deep.WithClusterNodes(m.ClusterNodes))
	}
	if len(m.BoosterTorus) == 3 {
		opts = append(opts, deep.WithBoosterTorus(m.BoosterTorus[0], m.BoosterTorus[1], m.BoosterTorus[2]))
	} else if m.BoosterNodes > 0 {
		opts = append(opts, deep.WithBoosterNodes(m.BoosterNodes))
	}
	if m.ClusterRanks > 0 {
		opts = append(opts, deep.WithClusterRanks(m.ClusterRanks))
	}
	if m.BoosterWorkers > 0 {
		opts = append(opts, deep.WithBoosterWorkers(m.BoosterWorkers))
	}
	if m.ModelCompute {
		opts = append(opts, deep.WithModelCompute())
	}
	if f := m.Faults; f != nil {
		opts = append(opts, deep.WithFaultInjector(deep.FaultPlan{
			NodeMTBF: f.NodeMTBFS, WeibullShape: f.WeibullShape,
			Repair: f.RepairS, Horizon: f.HorizonS, Seed: f.Seed,
		}))
	}
	if m.PowerGate {
		opts = append(opts, deep.WithPowerGating(m.WakeS))
	}
	if p := m.ClusterPower; p != nil {
		opts = append(opts, deep.WithClusterPowerModel(p.model()))
	}
	if p := m.BoosterPower; p != nil {
		opts = append(opts, deep.WithBoosterPowerModel(p.model()))
	}
	if s.Seed != 0 {
		opts = append(opts, deep.WithSeed(s.Seed))
	}
	if s.Fidelity != "" {
		fid, _ := deep.ParseFidelity(s.Fidelity) // validated in normalize
		opts = append(opts, deep.WithFidelity(fid))
	}
	if s.Energy {
		opts = append(opts, deep.WithEnergyMetering())
	}
	if s.Domains != 0 {
		opts = append(opts, deep.WithDomains(s.Domains))
	}
	if s.MaxWindow > 1 {
		opts = append(opts, deep.WithMaxWindow(s.MaxWindow))
	}
	if s.Trace {
		opts = append(opts, deep.WithTracing())
	}
	if s.MetricsEveryS > 0 {
		opts = append(opts, deep.WithMetrics(s.MetricsEveryS))
	}
	return opts
}

// model converts the wire power model.
func (p *PowerSpec) model() deep.PowerModel {
	return deep.PowerModel{
		SleepWatts: p.SleepWatts, IdleWatts: p.IdleWatts,
		PeakWatts: p.PeakWatts, WakeLatency: p.WakeLatencyS,
	}
}

// buildEnv materialises the machine and execution environment of a
// workload job.
func (s *JobSpec) buildEnv() (*deep.Env, deep.Workload, error) {
	m, err := deep.NewMachine(s.options()...)
	if err != nil {
		return nil, nil, err
	}
	env := m.NewEnv()
	w := s.Workload
	if w.Ranks > 0 {
		env.Ranks = w.Ranks
	}
	env.PlaceOnBooster = w.PlaceOnBooster
	env.Tol = w.Tol
	var wl deep.Workload
	switch w.Kind {
	case "cholesky":
		wl = deep.Cholesky{N: w.N, TileSize: w.TileSize, Workers: w.Workers}
	case "spmv":
		wl = deep.SpMV{NX: w.NX, NY: w.NY, Iters: w.Iters}
	case "stencil":
		wl = deep.Stencil{NX: w.NX, NY: w.NY, Iters: w.Iters}
	case "nbody":
		wl = deep.NBody{N: w.N, Steps: w.Steps}
	case "jobs":
		sj := deep.ScheduledJobs{
			Jobs: w.Jobs, Dynamic: w.Dynamic, Contiguous: w.Contiguous,
			BoostersPerOwner: w.BoostersPerOwner,
		}
		sj.Ckpt = w.Ckpt.model()
		wl = sj
	case "traffic":
		wl = deep.TorusTraffic{Messages: w.Messages, Bytes: w.MsgBytes, WindowMS: w.WindowMS}
	default:
		return nil, nil, errf(ErrUnknownWorkload, http.StatusBadRequest, "unknown workload kind %q", w.Kind)
	}
	return env, wl, nil
}

// hashSpec is the content-addressed identity of a job: everything
// that determines what the simulation computes and which artifacts it
// records — and nothing else (deadlines are scheduling hints).
type hashSpec struct {
	V          int           `json:"v"` // schema version
	Experiment string        `json:"experiment,omitempty"`
	Workload   *WorkloadSpec `json:"workload,omitempty"`
	Machine    *MachineSpec  `json:"machine,omitempty"`
	Run        expt.Spec     `json:"run"`
	Trace      bool          `json:"trace,omitempty"`
	MetricsS   float64       `json:"metrics_every_s,omitempty"`
}

// contentKey returns the spec's content address. The spec must be
// normalized first, so that defaulted and explicit forms coincide.
func (s *JobSpec) contentKey() (string, error) {
	return deep.ContentHash(hashSpec{
		V:          1,
		Experiment: s.Experiment,
		Workload:   s.Workload,
		Machine:    s.Machine,
		Run:        s.exptSpec(),
		Trace:      s.Trace,
		MetricsS:   s.MetricsEveryS,
	})
}
