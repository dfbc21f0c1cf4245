package mpi

// FabricTransport is a test transport: one fabric's per-hop costs over
// one topology. The model's own worlds use cbp.DeepTransport (cluster
// fat tree, booster torus, Booster Interface).

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// FabricTransport charges LogGP-style costs derived from a fabric
// parameter set and a topology: per-hop router and propagation delay
// plus serialization at the link bandwidth. It is contention-free (the
// virtual-clock plane models protocol behaviour; the event-driven
// fabric plane models contention), which keeps the functional runtime
// free of global coordination.
type FabricTransport struct {
	Topo topology.Topology
	P    fabric.Params
}

// NewFabricTransport returns a transport over topo with parameters p.
func NewFabricTransport(topo topology.Topology, p fabric.Params) *FabricTransport {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &FabricTransport{Topo: topo, P: p}
}

// nodeOf folds an arbitrary endpoint-node index onto the topology.
func (t *FabricTransport) nodeOf(n int) topology.NodeID {
	return topology.NodeID(((n % t.Topo.Nodes()) + t.Topo.Nodes()) % t.Topo.Nodes())
}

// Cost implements Transport. Loopback (same node after folding) is
// free of network cost: only the software overheads apply.
func (t *FabricTransport) Cost(src, dst int, bytes int) sim.Time {
	s, d := t.nodeOf(src), t.nodeOf(dst)
	if s == d {
		return 0
	}
	hops := topology.Hops(t.Topo, s, d)
	perHop := t.P.RouterDelay + t.P.LinkLatency
	ser := sim.FromSeconds(float64(bytes) / t.P.LinkBandwidth)
	return sim.Time(hops)*perHop + ser
}

// SendOverhead implements Transport.
func (t *FabricTransport) SendOverhead() sim.Time { return t.P.SendOverhead }

// RecvOverhead implements Transport.
func (t *FabricTransport) RecvOverhead() sim.Time { return t.P.RecvOverhead }
