package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// SpawnConfig tunes the modelled cost of process creation, the
// operation at the heart of the paper's Global MPI: "the actual spawn
// [is] done via MPI_Comm_spawn", a collective of the Cluster
// processes that starts the highly scalable code parts on Booster
// nodes.
type SpawnConfig struct {
	// PerProcess is the resource-manager cost to start one new process
	// (fork/exec, binary distribution, PMI wire-up amortised per rank).
	PerProcess sim.Time
	// Base is the fixed cost of the spawn operation (scheduler round
	// trip to the ParaStation daemon).
	Base sim.Time
	// Place maps the i-th spawned process to a transport node; nil
	// keeps the world's default placement.
	Place func(child int) int
}

// DefaultSpawnConfig uses period-plausible startup costs: a 2 ms
// scheduler round trip plus 500 us per spawned process.
func DefaultSpawnConfig() SpawnConfig {
	return SpawnConfig{
		PerProcess: 500 * sim.Microsecond,
		Base:       2 * sim.Millisecond,
	}
}

// Spawn is MPI_Comm_spawn: a collective over the intra-communicator c
// that starts n new ranks executing fn and returns the
// inter-communicator connecting the callers (local group) with the
// children (remote group). The children receive an intra-communicator
// covering exactly the spawned group, whose Parent() method returns
// their side of the inter-communicator.
//
// The modelled cost is charged at the root and propagated to all
// participants through the closing synchronisation, mirroring the real
// collective's semantics.
func (c *Comm) Spawn(n int, cfg SpawnConfig, fn func(*Comm) error) *Comm {
	if c.remote != nil {
		panic("mpi: Spawn on inter-communicator")
	}
	if n <= 0 {
		panic(fmt.Sprintf("mpi: Spawn of %d processes", n))
	}
	w := c.world
	// inter is the parents' side of the inter-communicator, less the
	// caller's endpoint and rank; the root fills it in and broadcasts it.
	var inter Comm
	if c.rank == 0 {
		// Charge the resource-manager cost at the root.
		c.ep.vt += cfg.Base + sim.Time(n)*cfg.PerProcess
		children := w.addEndpoints(n)
		inter = Comm{world: w, ctx: w.newContext(), group: c.group, remote: children}
		childCtx := w.newContext()
		// Launch children. Their clocks start at the root's current
		// time plus the transport cost of the start signal.
		for i, ep := range children {
			if cfg.Place != nil {
				ep.node = cfg.Place(i)
			}
			ep.vt = c.ep.vt + w.transport.Cost(c.ep.node, ep.node, 64)
			childComm := &Comm{world: w, ep: ep, ctx: childCtx, group: children, rank: i}
			childComm.parent = &Comm{world: w, ep: ep, ctx: inter.ctx, group: children, remote: c.group, rank: i}
			w.launch(childComm, fn)
		}
	}
	// Distribute the inter-communicator description to all parents: on
	// the wire, its context and the child list.
	inter = Unwrap(c.Bcast(0, Sized{Data: inter, Bytes: 8 * (1 + n)})).(Comm)
	inter.ep, inter.rank = c.ep, c.rank
	return &inter
}
