package cbp

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newBridge(t *testing.T) (*sim.Engine, *Gateway) {
	t.Helper()
	eng := sim.New()
	cluster := fabric.MustNetwork(eng, topology.NewFatTree(4, 2, 2), fabric.InfiniBandFDR, 1)
	booster := fabric.MustNetwork(eng, topology.NewTorus3D(2, 2, 2), fabric.Extoll, 2)
	gw := NewGateway(cluster, booster, 0, 0, 1500*sim.Nanosecond, 4*fabric.GB)
	return eng, gw
}

func TestGatewayForwardsBothWays(t *testing.T) {
	eng, gw := newBridge(t)
	var t1, t2 sim.Time
	gw.ToBooster(3, 7, 1<<20, func(at sim.Time, err error) {
		if err != nil {
			t.Errorf("ToBooster: %v", err)
		}
		t1 = at
	})
	eng.Run()
	toCluster(gw, 7, 3, 1<<20, func(at sim.Time, err error) {
		if err != nil {
			t.Errorf("toCluster: %v", err)
		}
		t2 = at
	})
	eng.Run()
	if t1 == 0 || t2 <= t1 {
		t.Fatalf("forward times %v %v", t1, t2)
	}
	if gw.Forwarded != 2 || gw.BytesForwarded != 2<<20 {
		t.Fatalf("gateway stats %d/%d", gw.Forwarded, gw.BytesForwarded)
	}
}

func TestGatewaySlowerThanIntraFabric(t *testing.T) {
	eng, gw := newBridge(t)
	const size = 1 << 20
	var cross sim.Time
	gw.ToBooster(3, 7, size, func(at sim.Time, err error) { cross = at })
	eng.Run()
	intra := gw.Booster.ZeroLoadLatency(1, 7, size)
	if cross <= intra {
		t.Fatalf("bridge crossing %v not slower than intra-booster %v", cross, intra)
	}
}

func TestGatewayIsSharedBottleneck(t *testing.T) {
	eng, gw := newBridge(t)
	const size = 4 << 20
	var times []sim.Time
	for i := 0; i < 4; i++ {
		gw.ToBooster(topology.NodeID(i+1), topology.NodeID(i+1), size,
			func(at sim.Time, err error) { times = append(times, at) })
	}
	eng.Run()
	if len(times) != 4 {
		t.Fatalf("completed %d", len(times))
	}
	// The last message should be delayed by roughly 3 relay slots.
	relay := sim.FromSeconds(float64(size) / (4 * fabric.GB))
	if times[len(times)-1]-times[0] < 2*relay {
		t.Fatalf("no bridge serialisation visible: %v", times)
	}
}

func TestDeepTransportCostStructure(t *testing.T) {
	tr := NewDeepTransport(16, 8)
	const size = 4096
	intraCluster := tr.Cost(1, 2, size)
	intraBooster := tr.Cost(tr.BoosterNode(1), tr.BoosterNode(2), size)
	cross := tr.Cost(1, tr.BoosterNode(2), size)
	if cross <= intraCluster || cross <= intraBooster {
		t.Fatalf("cross %v should exceed intra %v / %v", cross, intraCluster, intraBooster)
	}
	// Symmetric-ish both directions.
	back := tr.Cost(tr.BoosterNode(2), 1, size)
	diff := cross - back
	if diff < 0 {
		diff = -diff
	}
	if diff > cross/10 {
		t.Fatalf("cross costs asymmetric: %v vs %v", cross, back)
	}
}

func TestDeepTransportBoosterLatencyLower(t *testing.T) {
	tr := NewDeepTransport(64, 64)
	// Small-message neighbour latency should be lower on EXTOLL than on
	// the IB fat tree (the EXTOLL design point).
	ibNeighbor := tr.Cost(0, 1, 64)
	exNeighbor := tr.Cost(tr.BoosterNode(0), tr.BoosterNode(1), 64)
	if exNeighbor >= ibNeighbor {
		t.Fatalf("EXTOLL neighbour %v not below IB %v", exNeighbor, ibNeighbor)
	}
}

func TestTorusShapeCoversRequest(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 27, 60, 100, 512} {
		x, y, z := TorusShape(n)
		if x*y*z < n {
			t.Fatalf("shape %dx%dx%d < %d", x, y, z, n)
		}
		// Near-cubic: max dim at most 2x+1 min dim for reasonable n.
		if x > 2*z+1 || z > 2*x+1 {
			t.Fatalf("shape %dx%dx%d too skewed for %d", x, y, z, n)
		}
	}
}

func TestNewGatewayRejectsBadWiring(t *testing.T) {
	mk := func(eng *sim.Engine) *fabric.Network {
		return fabric.MustNetwork(eng, topology.NewTorus3D(2, 2, 2), fabric.Extoll, 1)
	}
	eng := sim.New()
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"different engines", func() { NewGateway(mk(eng), mk(sim.New()), 0, 0, 0, fabric.GB) }},
		{"zero memBW", func() { NewGateway(mk(eng), mk(eng), 0, 0, 0, 0) }},
		{"no cluster nodes", func() { NewDeepTransport(0, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.build()
		})
	}
}

func TestDeepTransportOverheads(t *testing.T) {
	tr := NewDeepTransport(16, 8)
	if tr.SendOverhead() != fabric.InfiniBandFDR.SendOverhead || tr.RecvOverhead() != fabric.InfiniBandFDR.RecvOverhead {
		t.Fatalf("overheads %v/%v, want InfiniBand FDR's %v/%v", tr.SendOverhead(), tr.RecvOverhead(),
			fabric.InfiniBandFDR.SendOverhead, fabric.InfiniBandFDR.RecvOverhead)
	}
}

// toCluster delivers size bytes from booster node src to cluster node
// dst through the bridge: ToBooster's mirror image.
func toCluster(g *Gateway, src topology.NodeID, dst topology.NodeID, size int,
	done func(at sim.Time, err error)) {
	g.Booster.Send(src, g.BoosterNode, size, func(_ sim.Time, err error) {
		if err != nil {
			done(g.eng().Now(), err)
			return
		}
		g.relay(size, func() {
			g.Cluster.Send(g.ClusterNode, dst, size, done)
		})
	})
}
