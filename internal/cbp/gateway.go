package cbp

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Gateway is a Booster Interface node: it owns one endpoint on the
// cluster fabric (InfiniBand) and one on the booster fabric (EXTOLL)
// and forwards traffic between them with SMFU store-and-forward
// semantics: the full message is landed in gateway memory and
// re-injected on the other side.
type Gateway struct {
	Cluster     *fabric.Network
	Booster     *fabric.Network
	ClusterNode topology.NodeID
	BoosterNode topology.NodeID
	// ForwardDelay is the per-message protocol processing cost
	// (framing, address translation, SMFU descriptor handling).
	ForwardDelay sim.Time
	// MemBandwidth is the gateway staging-memory rate in bytes/s.
	MemBandwidth float64

	buffer *sim.Resource
	// Stats
	Forwarded      uint64
	BytesForwarded uint64
}

// NewGateway builds a gateway bridging the two networks at the given
// attachment points. Both networks must share one simulation engine.
func NewGateway(cluster, booster *fabric.Network, cn, bn topology.NodeID,
	forwardDelay sim.Time, memBW float64) *Gateway {
	if cluster.Eng != booster.Eng {
		panic("cbp: gateway fabrics on different engines")
	}
	if memBW <= 0 {
		panic(fmt.Sprintf("cbp: gateway memory bandwidth %v", memBW))
	}
	return &Gateway{
		Cluster: cluster, Booster: booster,
		ClusterNode: cn, BoosterNode: bn,
		ForwardDelay: forwardDelay, MemBandwidth: memBW,
		buffer: sim.NewResource(cluster.Eng, "smfu"),
	}
}

// eng returns the shared simulation engine.
func (g *Gateway) eng() *sim.Engine { return g.Cluster.Eng }

// ToBooster delivers size bytes from cluster node src to booster node
// dst through the bridge, invoking done at completion.
func (g *Gateway) ToBooster(src topology.NodeID, dst topology.NodeID, size int,
	done func(at sim.Time, err error)) {
	g.Cluster.Send(src, g.ClusterNode, size, func(_ sim.Time, err error) {
		if err != nil {
			done(g.eng().Now(), err)
			return
		}
		g.relay(size, func() {
			g.Booster.Send(g.BoosterNode, dst, size, done)
		})
	})
}

// relay charges the SMFU store-and-forward cost: protocol delay plus a
// pass through gateway memory, serialised on the gateway buffer (all
// bridge traffic shares it — the bridging bottleneck the DEEP
// architecture sizes the number of BI nodes against).
func (g *Gateway) relay(size int, next func()) {
	service := g.ForwardDelay + sim.FromSeconds(float64(size)/g.MemBandwidth)
	g.buffer.Acquire(service, func(_, _ sim.Time) {
		g.Forwarded++
		g.BytesForwarded += uint64(size)
		next()
	})
}

// Utilisation returns the busy fraction of the gateway buffer.
func (g *Gateway) Utilisation() float64 { return g.buffer.Utilisation() }
