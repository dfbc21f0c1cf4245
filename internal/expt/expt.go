// Package expt is the experiment harness of the reproduction: one
// generator per paper figure/claim, each producing a printable table
// with the same rows/series the paper's argument rests on. The public
// deep package (deep.Runner) and the cmd/deepbench binary drive this
// registry; EXPERIMENTS.md records paper-vs-measured for every entry.
package expt

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config carries the cross-cutting run-time overrides an experiment
// run accepts. The zero-value semantics are chosen so that
// &Config{Scale: 1} reproduces the published tables byte-for-byte.
type Config struct {
	// Seed, when non-zero, overrides the published RNG seed of every
	// seeded experiment (E02, E09, E13, E14, ...). Zero keeps each
	// experiment's default seed.
	Seed uint64
	// Scale multiplies the workload size of experiments with a natural
	// size axis (job counts, message counts). Values <= 0 or == 1 keep
	// the paper scale.
	Scale float64
	// Fidelity overrides the fabric transfer model of event-driven
	// experiments. FidelityDefault keeps each experiment's own choice
	// (the exact packet model everywhere except E15, which defaults to
	// the flow fast path to reach 100k nodes).
	Fidelity fabric.Fidelity
	// Energy enables energy-to-solution reporting: every experiment
	// appends joules / GFlop/W columns fed by the event-driven energy
	// recorder (node power states, per-byte fabric energy, checkpoint
	// I/O). Off — the default — keeps the published tables
	// byte-identical; E16 is inherently an energy experiment and
	// reports energy regardless.
	Energy bool
	// Domains selects the simulation kernel for experiments that can
	// partition their machine spatially (E15). 0 or 1 runs the exact
	// sequential kernel — byte-identical to every published table; K >
	// 1 runs K domain engines under conservative window
	// synchronization (output is byte-stable per K, not across K); a
	// negative value resolves to GOMAXPROCS.
	Domains int
	// MaxWindow caps adaptive window widening on the partitioned
	// kernel: quiet windows (no cross-domain traffic) geometrically
	// widen the next deadline up to MaxWindow times the fabric
	// lookahead; cross traffic shrinks back to one lookahead. 0 or 1
	// keeps fixed windows. Only meaningful with Domains > 1; output is
	// byte-stable per (Domains, MaxWindow) pair.
	MaxWindow int
	// MaxNodes, when non-zero, bounds the machine sizes a sweep
	// experiment visits. The default sweeps stop near 100k nodes (the
	// sequential kernel's practical ceiling); raising MaxNodes to 10^6
	// adds E15's edge-100 point, which requires Domains > 1.
	MaxNodes int
	// Obs, when non-nil, is the observability hub engine-backed
	// experiment runs publish into: virtual-time trace spans (when its
	// tracing is on) and metrics timeseries (when sampling is on). Nil
	// — the default — is inert and keeps the published tables
	// byte-identical.
	Obs *obs.Observer
}

// seed resolves the effective seed given an experiment's default.
func (c *Config) seed(def uint64) uint64 {
	if c == nil || c.Seed == 0 {
		return def
	}
	return c.Seed
}

// fidelity resolves the effective transfer model given an
// experiment's default.
func (c *Config) fidelity(def fabric.Fidelity) fabric.Fidelity {
	if c == nil || c.Fidelity == fabric.FidelityDefault {
		return def
	}
	return c.Fidelity
}

// energyOn reports whether energy reporting is enabled.
func (c *Config) energyOn() bool { return c != nil && c.Energy }

// Kernel resolves configured kernel knobs to the ones a run uses: a
// domain count of 0 or 1 is the sequential kernel (1) and a negative
// one is GOMAXPROCS; a window cap below 2 keeps fixed windows (1).
// deep's machines and content keys resolve through it too, so a key
// names the kernel its run uses.
func Kernel(domains, maxWindow int) (k, window int) {
	k = max(domains, 1)
	if domains < 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return k, max(maxWindow, 1)
}

// kernel resolves the effective domain count and window cap; see
// Kernel.
func (c *Config) kernel() (k, window int) {
	if c == nil {
		return 1, 1
	}
	return Kernel(c.Domains, c.MaxWindow)
}

// maxNodes resolves the sweep size bound given an experiment's
// default ceiling.
func (c *Config) maxNodes(def int) int {
	if c == nil || c.MaxNodes <= 0 {
		return def
	}
	return c.MaxNodes
}

// observe opens an observability lane for one simulation run. The
// label becomes the run's trace process name and metrics run id; it
// must be unique within one experiment invocation. Nil-safe all the
// way down: with no observer configured the returned Run is nil and
// every scope/registry drawn from it is inert.
func (c *Config) observe(label string, eng *sim.Engine) *obs.Run {
	if c == nil {
		return nil
	}
	return c.Obs.Observe(label, eng)
}

// energyHeaders returns the base column headers, extended with the
// energy columns when energy reporting is on.
func (c *Config) energyHeaders(headers ...string) []string {
	if !c.energyOn() {
		return headers
	}
	return append(headers, "joules", "GFlop/W")
}

// energyRow returns the base row cells, extended with the energy
// observations when energy reporting is on. Sites with no useful-flop
// accounting pass gfw 0.
func (c *Config) energyRow(cells []any, joules, gfw float64) []any {
	if !c.energyOn() {
		return cells
	}
	return append(cells, joules, gfw)
}

// gflopsPerWatt is the shared ratio helper: zero when no energy.
func gflopsPerWatt(flops, joules float64) float64 {
	if joules == 0 {
		return 0
	}
	return flops / joules / 1e9
}

// scale resolves a workload size n under the configured scale factor,
// never below 1.
func (c *Config) scale(n int) int {
	if c == nil || c.Scale <= 0 || c.Scale == 1 {
		return n
	}
	s := int(float64(n)*c.Scale + 0.5)
	return max(s, 1)
}

// Experiment is one reproducible figure.
type Experiment struct {
	// ID is the experiment identifier (E01.., A01..).
	ID string
	// Title is a short description.
	Title string
	// PaperRef points at the slide/figure of the paper being
	// reproduced.
	PaperRef string
	// Run generates the table. Runs are deterministic for a fixed
	// Config; ctx cancellation aborts between sweep points. A nil cfg
	// is treated as &Config{Scale: 1}.
	Run func(ctx context.Context, cfg *Config) (*stats.Table, error)
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs panic at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("expt: duplicate experiment %s", e.ID))
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
