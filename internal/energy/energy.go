// Package energy is the event-driven power/energy telemetry layer of
// the simulated runs. Components publish power-state transitions and
// named energy charges into a Recorder as simulation events fire —
// the machine layer when nodes change between sleep/idle/busy, the
// fabric when transfers deliver, the resilience layer when checkpoint
// I/O burns watts — and the Recorder integrates watts over virtual
// time into the joules and GFlop/W figures the energy experiments
// report (the paper cites Xeon Phi at 5 GFlop/W and motivates the
// whole project with the ~100 MW exascale power wall).
//
// A nil *Recorder is inert: every method is a no-op, so components
// can publish unconditionally and energy-off runs pay nothing — the
// property the byte-identical default outputs rely on.
package energy

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Recorder accumulates energy for a set of node groups plus named
// non-node charges (fabric transfer energy, checkpoint I/O, ...). It
// reads virtual time from the engine it was built over; accumulation
// is lazy — each group settles the elapsed occupancy-weighted energy
// whenever its state changes, which makes the total a pure function
// of state occupancy over time, independent of the order same-time
// events fire in.
type Recorder struct {
	eng     *sim.Engine
	groups  map[string]*NodeGroup
	charges map[string]float64
	frozen  bool
}

// NewRecorder returns an empty recorder over the engine's clock.
func NewRecorder(eng *sim.Engine) *Recorder {
	return &Recorder{
		eng:     eng,
		groups:  make(map[string]*NodeGroup),
		charges: make(map[string]float64),
	}
}

// now returns the current virtual time.
func (r *Recorder) now() sim.Time { return r.eng.Now() }

// AddGroup registers count nodes of the given model under name, all
// starting in the idle state. Re-adding an existing name is an error:
// the previous API silently replaced the model and count while
// keeping accumulated joules, a footgun that misattributed energy.
func (r *Recorder) AddGroup(name string, model machine.NodeModel, count int) (*NodeGroup, error) {
	if r == nil {
		return nil, nil
	}
	if _, dup := r.groups[name]; dup {
		return nil, fmt.Errorf("energy: group %q already registered", name)
	}
	if count <= 0 {
		return nil, fmt.Errorf("energy: group %q with %d nodes", name, count)
	}
	g := &NodeGroup{rec: r, Model: model, Count: count, util: 1, last: r.now()}
	g.counts[machine.PowerIdle] = count
	r.groups[name] = g
	return g, nil
}

// MustAddGroup is AddGroup for experiment setup code with fixed
// names; it panics on the errors AddGroup reports.
func (r *Recorder) MustAddGroup(name string, model machine.NodeModel, count int) *NodeGroup {
	g, err := r.AddGroup(name, model, count)
	if err != nil {
		panic(err)
	}
	return g
}

// Group returns the named group, or nil.
func (r *Recorder) Group(name string) *NodeGroup {
	if r == nil {
		return nil
	}
	return r.groups[name]
}

// Charge accumulates joules under a named non-node category
// ("fabric", "checkpoint-io", ...). Components call it as the
// corresponding simulation events fire.
func (r *Recorder) Charge(name string, joules float64) {
	if r == nil || r.frozen || joules == 0 {
		return
	}
	r.charges[name] += joules
}

// Freeze settles every group at the current virtual time and stops
// further accumulation. Call it at the moment the measured work
// completes when the engine keeps running past it (a fault injector's
// horizon, a periodic model): energy to *solution* is integrated over
// [0, solution], not over however long the event queue stays busy.
// Transitions after the freeze still move occupancy (so bookkeeping
// invariants hold) but add no joules.
func (r *Recorder) Freeze() {
	if r == nil || r.frozen {
		return
	}
	r.settleAll()
	r.frozen = true
}

// ChargeJoules returns one named charge category's total.
func (r *Recorder) ChargeJoules(name string) float64 {
	if r == nil {
		return 0
	}
	return r.charges[name]
}

// settleAll brings every group up to the current virtual time.
func (r *Recorder) settleAll() {
	for _, g := range r.groups {
		g.settle()
	}
}

// Joules returns the total energy across all groups and charges,
// settled to the current virtual time.
func (r *Recorder) Joules() float64 {
	if r == nil {
		return 0
	}
	r.settleAll()
	sum := 0.0
	for _, g := range r.groups {
		sum += g.joules
	}
	for _, j := range r.charges {
		sum += j
	}
	return sum
}

// Flops returns total useful flops across all groups.
func (r *Recorder) Flops() float64 {
	if r == nil {
		return 0
	}
	r.settleAll()
	sum := 0.0
	for _, g := range r.groups {
		sum += g.flops
	}
	return sum
}

// GFlopsPerWatt returns achieved GFlop/J (== GFlop/s per W) over the
// recorded run. Zero if no energy was recorded.
func (r *Recorder) GFlopsPerWatt() float64 {
	j := r.Joules()
	if j == 0 {
		return 0
	}
	return r.Flops() / j / 1e9
}

// GroupNames returns the registered group names, sorted.
func (r *Recorder) GroupNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.groups))
	for n := range r.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ChargeNames returns the named charge categories, sorted.
func (r *Recorder) ChargeNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.charges))
	for n := range r.charges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NodeGroup tracks one homogeneous set of nodes: how many sit in each
// power state, settled lazily as transitions are published.
type NodeGroup struct {
	rec   *Recorder
	Model machine.NodeModel
	Count int

	counts [machine.NumPowerStates]int
	// util is the utilisation of the busy state's draw (Power(util));
	// 1 means full peak.
	util float64

	last       sim.Time
	joules     float64
	stateNodeS [machine.NumPowerStates]float64 // node-seconds per state
	flops      float64

	// Obs, when non-nil, receives every power-state transition as an
	// instant trace event on the ObsTid thread (typically obs.LanePower
	// plus a per-group offset). Nil is inert.
	Obs    *obs.Scope
	ObsTid int
}

// Recorder returns the recorder the group publishes into (nil for a
// nil group).
func (g *NodeGroup) Recorder() *Recorder {
	if g == nil {
		return nil
	}
	return g.rec
}

// watts returns the per-node draw in state s at the group's busy
// utilisation.
func (g *NodeGroup) watts(s machine.PowerState) float64 {
	if s == machine.PowerBusy {
		return g.Model.Power(g.util)
	}
	return g.Model.StateWatts(s)
}

// settle integrates the current occupancy up to the engine clock.
func (g *NodeGroup) settle() {
	now := g.rec.now()
	dt := (now - g.last).Seconds()
	if dt <= 0 || g.rec.frozen {
		g.last = now
		return
	}
	for s, n := range g.counts {
		if n == 0 {
			continue
		}
		j := g.watts(machine.PowerState(s)) * float64(n) * dt
		g.joules += j
		g.stateNodeS[s] += float64(n) * dt
	}
	g.last = now
}

// Transition moves n nodes from one power state to another at the
// current virtual time. Moving more nodes than the source state holds
// panics: misattributed occupancy is a model bug worth failing loudly
// on. Wake/sleep latencies are the caller's to model (delay the
// transition event by Model.WakeLatency / SleepLatency).
func (g *NodeGroup) Transition(n int, from, to machine.PowerState) {
	if g == nil || n == 0 {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("energy: transition of %d nodes", n))
	}
	g.settle()
	if g.counts[from] < n {
		panic(fmt.Sprintf("energy: transition of %d nodes %v->%v but only %d are %v",
			n, from, to, g.counts[from], from))
	}
	g.counts[from] -= n
	g.counts[to] += n
	if g.Obs.Enabled() {
		g.Obs.Instant(g.ObsTid, "power", from.String()+"->"+to.String(), g.rec.now(),
			obs.KV{K: "n", V: n}, obs.KV{K: "busy", V: g.counts[machine.PowerBusy]})
	}
}

// SetBusyUtilisation settles and changes the busy-state utilisation
// for subsequent occupancy (draw Power(u) instead of PeakWatts).
func (g *NodeGroup) SetBusyUtilisation(u float64) {
	if g == nil {
		return
	}
	g.settle()
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	g.util = u
}

// AddFlops credits useful floating-point work to the group.
func (g *NodeGroup) AddFlops(f float64) {
	if g == nil {
		return
	}
	g.flops += f
}

// InState returns how many nodes currently sit in state s.
func (g *NodeGroup) InState(s machine.PowerState) int {
	if g == nil {
		return 0
	}
	return g.counts[s]
}

// Joules returns the group's accumulated energy, settled to now.
func (g *NodeGroup) Joules() float64 {
	if g == nil {
		return 0
	}
	g.settle()
	return g.joules
}

// StateNodeSeconds returns the node-seconds spent in one power state.
func (g *NodeGroup) StateNodeSeconds(s machine.PowerState) float64 {
	if g == nil {
		return 0
	}
	g.settle()
	return g.stateNodeS[s]
}

// Flops returns the group's accumulated useful flops.
func (g *NodeGroup) Flops() float64 {
	if g == nil {
		return 0
	}
	g.settle()
	return g.flops
}

// BusyFraction returns busy node-seconds over total node-seconds.
func (g *NodeGroup) BusyFraction() float64 {
	if g == nil {
		return 0
	}
	g.settle()
	total := 0.0
	for _, s := range g.stateNodeS {
		total += s
	}
	if total == 0 {
		return 0
	}
	return g.stateNodeS[machine.PowerBusy] / total
}
