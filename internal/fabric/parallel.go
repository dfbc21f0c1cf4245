package fabric

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ErrPartitionUnsupported marks fabric configurations the partitioned
// kernel cannot honour — fault injection and link outages rely on
// shard-crossing state the cross-domain shortcut does not model. Match
// it with errors.Is to turn a setup failure deep inside machine
// construction into a clear submit-time message.
var ErrPartitionUnsupported = errors.New("not supported under the partitioned kernel")

// Domains is a spatially partitioned fabric: the node space is split
// into K contiguous index ranges, each owning the links that leave its
// nodes and simulated by its own shard Network on its own sim.Cluster
// domain. Only node-major topologies (the booster's torus) partition,
// so a shard's links are one contiguous range; K=1 takes any
// topology. A shard finds a one-hop message's link with the
// topology's OneHop and routes any other. Traffic that stays inside one
// shard runs through the unmodified sequential code path (packet or
// flow fidelity); traffic that crosses a boundary is delivered at its
// zero-load latency as a single cross-domain event — exact for
// uncontended routes, an approximation under cross-boundary contention.
//
// The cluster's lookahead is Params.Lookahead(): every cross-boundary
// message pays at least the software overheads plus one router and
// wire traversal before it can touch the far side, so the conservative
// window bound holds by construction.
//
// Fault modelling is incompatible with the cross-path shortcut, so at
// K>1 NewDomains rejects a non-zero PacketErrorRate and the shards
// refuse link outages. K=1 is the sequential fabric itself: its one
// shard is an unpartitioned Network and takes both.
type Domains struct {
	cl     *sim.Cluster
	topo   topology.Topology
	nm     topology.NodeMajorLinks // topo's link layout, nil at K=1
	p      Params
	shards []*Network
	bounds []int // K+1 node-index bounds, bounds[0]=0, bounds[K]=Nodes()
}

// NewDomains partitions topo's nodes at the given bounds (a strictly
// increasing sequence from 0 to Nodes(), one shard per interval) and
// builds the K-domain fabric. At K=1 the one shard is a plain
// unpartitioned Network on the cluster's only engine — the sequential
// fabric, for any topology and any PacketErrorRate. At K>1 the
// topology must have node-major links (topology.NodeMajorLinks: the
// torus), so each shard owns one contiguous link range, and fault
// injection is refused.
func NewDomains(topo topology.Topology, p Params, seed uint64, bounds []int) (*Domains, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := len(bounds) - 1
	if k < 1 {
		return nil, fmt.Errorf("fabric: partition needs at least one domain")
	}
	if bounds[0] != 0 || bounds[k] != topo.Nodes() {
		return nil, fmt.Errorf("fabric: partition bounds %v do not cover [0,%d)", bounds, topo.Nodes())
	}
	for i := 0; i < k; i++ {
		if bounds[i+1] <= bounds[i] {
			return nil, fmt.Errorf("fabric: partition bounds %v not strictly increasing", bounds)
		}
	}
	d := &Domains{
		cl:     sim.NewCluster(k, p.Lookahead()),
		topo:   topo,
		p:      p,
		shards: make([]*Network, k),
		bounds: append([]int(nil), bounds...),
	}
	if k == 1 {
		d.shards[0] = MustNetwork(d.cl.Engine(0), topo, p, seed) // p is valid
		return d, nil
	}
	if p.PacketErrorRate > 0 {
		return nil, fmt.Errorf("fabric: packet error injection is %w", ErrPartitionUnsupported)
	}
	nm, ok := topo.(topology.NodeMajorLinks)
	if !ok {
		return nil, fmt.Errorf("fabric: %s has no node-major link layout; cannot partition", topo.Name())
	}
	d.nm = nm
	deg := nm.LinkDegree()
	for i := 0; i < k; i++ {
		sh := &Network{
			Eng:      d.cl.Engine(i),
			Topo:     topo,
			P:        p,
			down:     make([]bool, (bounds[i+1]-bounds[i])*deg),
			src:      rng.New(seed + uint64(i)),
			part:     d,
			domain:   i,
			linkBase: bounds[i] * deg,
		}
		sh.kind = sh.Eng.Register(sh)
		d.shards[i] = sh
	}
	return d, nil
}

// MustDomains is NewDomains that panics on error, for experiment setup
// code with compile-time-valid parameters.
func MustDomains(topo topology.Topology, p Params, seed uint64, bounds []int) *Domains {
	d, err := NewDomains(topo, p, seed, bounds)
	if err != nil {
		panic(err)
	}
	return d
}

// Cluster returns the underlying parallel kernel, for coordinators
// that inject work and drive windows.
func (d *Domains) Cluster() *sim.Cluster { return d.cl }

// Domains returns the partition count K.
func (d *Domains) Domains() int { return len(d.shards) }

// Bounds returns the node-index partition bounds (length K+1).
func (d *Domains) Bounds() []int { return d.bounds }

// Owner returns the domain that owns node.
func (d *Domains) Owner(node topology.NodeID) int {
	return sort.SearchInts(d.bounds, int(node)+1) - 1
}

// Shard returns domain i's shard network.
func (d *Domains) Shard(i int) *Network { return d.shards[i] }

// SetFidelity selects the transfer model on every shard.
func (d *Domains) SetFidelity(f Fidelity) {
	for _, sh := range d.shards {
		sh.SetFidelity(f)
	}
}

// SetMaxWindow caps adaptive window widening on the underlying
// kernel; see sim.Cluster.SetMaxWindow. Call before Run.
func (d *Domains) SetMaxWindow(mult int) { d.cl.SetMaxWindow(mult) }

// SetEnergyModel attaches the electrical model to every shard.
func (d *Domains) SetEnergyModel(e EnergyModel) {
	for _, sh := range d.shards {
		sh.SetEnergyModel(e)
	}
}

// Run executes the partitioned simulation to quiescence and returns
// the maximum executed event time.
func (d *Domains) Run() sim.Time { return d.cl.Run() }

// Stats sums the per-shard transfer counters into a machine-wide
// snapshot.
func (d *Domains) Stats() Stats {
	var s Stats
	for _, sh := range d.shards {
		s.Messages += sh.Stats.Messages
		s.BytesDelivered += sh.Stats.BytesDelivered
		s.Packets += sh.Stats.Packets
		s.Retransmits += sh.Stats.Retransmits
		s.Drops += sh.Stats.Drops
		s.LinkOutageHits += sh.Stats.LinkOutageHits
		s.FlowMessages += sh.Stats.FlowMessages
		s.CrossMessages += sh.Stats.CrossMessages
	}
	return s
}

// KernelStats returns the cluster's coherent cross-domain scheduler
// counters.
func (d *Domains) KernelStats() sim.ClusterStats { return d.cl.Stats() }

// EnergyJoules returns the machine-wide fabric energy at virtual time
// finish: the shards' accumulated transfer energy plus one idle term
// over every link of the topology — charged once against the global
// clock, not per shard, so the total matches what the sequential
// fabric would report.
func (d *Domains) EnergyJoules(finish sim.Time) float64 {
	j := d.shards[0].energy.IdleJ(d.topo.Links(), finish)
	for _, sh := range d.shards {
		j += sh.transferJ
	}
	return j
}

// MaxLinkUtilisation returns the highest per-link busy fraction over
// all shards, measured against the machine-wide clock.
func (d *Domains) MaxLinkUtilisation() float64 {
	now := d.cl.Now()
	if now == 0 {
		return 0
	}
	max := 0.0
	for _, sh := range d.shards {
		for i := range sh.down {
			if u := float64(sh.linkBusyTime(sh.gl(i), now)) / float64(now); u > max {
				max = u
			}
		}
	}
	return max
}

// routeLocal reports whether every link of route lies in this
// shard's link range.
func (n *Network) routeLocal(route []topology.LinkID) bool {
	lo, hi := n.linkBase, n.linkBase+len(n.down)
	for _, l := range route {
		if int(l) < lo || int(l) >= hi {
			return false
		}
	}
	return true
}

// crossSend delivers a boundary-crossing message as one cross-domain
// event at its zero-load latency — the same pipelined store-and-
// forward arithmetic as ZeroLoadLatency, so an uncontended cross
// message arrives exactly when the sequential packet model would
// deliver it. The destination shard books delivery statistics and
// transfer energy, and the completion callback runs on the destination
// domain's engine: any further sends it issues must go through the
// destination node's shard.
func (n *Network) crossSend(dst topology.NodeID, hops, size int,
	done func(at sim.Time, err error)) {
	var z sizing
	n.P.size(&z, size)
	n.Stats.Packets += uint64(z.sh.packets)
	n.Stats.CrossMessages++
	t := n.Eng.Now() + n.P.zeroLoad(hops, &z)
	owner := n.part.Owner(dst)
	dsh := n.part.shards[owner]
	n.part.cl.Post(n.domain, owner, t, func() {
		dsh.Stats.BytesDelivered += uint64(size)
		if dsh.energy.PerByteJ != 0 {
			dsh.transferJ += dsh.energy.TransferJ(size, hops)
		}
		done(t, nil)
	})
}
