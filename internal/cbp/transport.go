package cbp

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// DeepTransport is the virtual-clock cost model of the full DEEP
// machine for the mpi runtime: transport nodes [0, ClusterNodes) live
// on the InfiniBand fat tree, nodes [ClusterNodes, ClusterNodes +
// BoosterNodes) on the EXTOLL torus, and messages crossing the Booster
// Interface pay both fabrics plus the store-and-forward bridge cost.
// It implements mpi.Transport.
type DeepTransport struct {
	ClusterTopo topology.Topology
	BoosterTopo topology.Topology
	ClusterP    fabric.Params
	BoosterP    fabric.Params
	// GatewayDelay is the per-message SMFU protocol cost.
	GatewayDelay sim.Time
	// GatewayBandwidth is the bridge staging rate (bytes/s).
	GatewayBandwidth float64
	// ClusterGateway and BoosterGateway are the attachment nodes of the
	// BI on each side.
	ClusterGateway topology.NodeID
	BoosterGateway topology.NodeID
}

// NewDeepTransport wires a DEEP machine with cn cluster nodes on a fat
// tree and bn booster nodes on a 3D torus, bridged at node 0 of each
// fabric, with default gateway characteristics.
func NewDeepTransport(cn, bn int) *DeepTransport {
	if cn < 1 || bn < 1 {
		panic(fmt.Sprintf("cbp: DEEP machine with %d cluster / %d booster nodes", cn, bn))
	}
	leaves := (cn + 15) / 16
	x, y, z := TorusShape(bn)
	return &DeepTransport{
		ClusterTopo:      topology.NewFatTree(16, leaves, 8),
		BoosterTopo:      topology.NewTorus3D(x, y, z),
		ClusterP:         fabric.InfiniBandFDR,
		BoosterP:         fabric.Extoll,
		GatewayDelay:     1500 * sim.Nanosecond,
		GatewayBandwidth: 4.0 * fabric.GB,
	}
}

// TorusShape factors n into a near-cubic 3D shape covering at least n
// nodes — the booster topology NewDeepTransport models.
func TorusShape(n int) (x, y, z int) {
	x, y, z = 1, 1, 1
	for x*y*z < n {
		switch {
		case x <= y && x <= z:
			x++
		case y <= z:
			y++
		default:
			z++
		}
	}
	return
}

// ClusterNodes returns the cluster side size.
func (t *DeepTransport) ClusterNodes() int { return t.ClusterTopo.Nodes() }

// IsBooster reports whether transport node n is a booster node.
func (t *DeepTransport) IsBooster(n int) bool { return n >= t.ClusterTopo.Nodes() }

// BoosterNode converts a booster index [0, bn) to a transport node id,
// for use with mpi spawn placement.
func (t *DeepTransport) BoosterNode(i int) int { return t.ClusterTopo.Nodes() + i }

func (t *DeepTransport) clusterCost(src, dst topology.NodeID, bytes int) sim.Time {
	hops := topology.Hops(t.ClusterTopo, src, dst)
	per := t.ClusterP.RouterDelay + t.ClusterP.LinkLatency
	return sim.Time(hops)*per + sim.FromSeconds(float64(bytes)/t.ClusterP.LinkBandwidth)
}

func (t *DeepTransport) boosterCost(src, dst topology.NodeID, bytes int) sim.Time {
	hops := topology.Hops(t.BoosterTopo, src, dst)
	per := t.BoosterP.RouterDelay + t.BoosterP.LinkLatency
	return sim.Time(hops)*per + sim.FromSeconds(float64(bytes)/t.BoosterP.LinkBandwidth)
}

// Cost implements mpi.Transport. Node ids outside the machine are
// folded onto it modulo the node count.
func (t *DeepTransport) Cost(src, dst int, bytes int) sim.Time {
	total := t.ClusterTopo.Nodes() + t.BoosterTopo.Nodes()
	src = ((src % total) + total) % total
	dst = ((dst % total) + total) % total
	sb, db := t.IsBooster(src), t.IsBooster(dst)
	cn := t.ClusterTopo.Nodes()
	switch {
	case !sb && !db:
		return t.clusterCost(topology.NodeID(src), topology.NodeID(dst), bytes)
	case sb && db:
		return t.boosterCost(topology.NodeID(src-cn), topology.NodeID(dst-cn), bytes)
	case !sb && db:
		return t.clusterCost(topology.NodeID(src), t.ClusterGateway, bytes) +
			t.bridgeCost(bytes) +
			t.boosterCost(t.BoosterGateway, topology.NodeID(dst-cn), bytes)
	default:
		return t.boosterCost(topology.NodeID(src-cn), t.BoosterGateway, bytes) +
			t.bridgeCost(bytes) +
			t.clusterCost(t.ClusterGateway, topology.NodeID(dst), bytes)
	}
}

func (t *DeepTransport) bridgeCost(bytes int) sim.Time {
	return t.GatewayDelay + sim.FromSeconds(float64(bytes)/t.GatewayBandwidth)
}

// SendOverhead implements mpi.Transport; the cluster-side MPI stack
// dominates the per-message software cost.
func (t *DeepTransport) SendOverhead() sim.Time { return t.ClusterP.SendOverhead }

// RecvOverhead implements mpi.Transport.
func (t *DeepTransport) RecvOverhead() sim.Time { return t.ClusterP.RecvOverhead }
