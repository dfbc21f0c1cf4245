package fabric

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// evenBounds splits n nodes into k near-equal contiguous ranges.
func evenBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// trafficItem is one randomized send.
type trafficItem struct {
	start    sim.Time
	src, dst topology.NodeID
	size     int
}

// randomTraffic draws count sends between random node pairs. With
// stagger > 0 the injections are spaced so each message completes on
// an idle network before the next starts (the uncontended regime where
// the cross-domain shortcut is provably exact); with stagger == 0 the
// sends all collide at a handful of times.
func randomTraffic(topo topology.Topology, count int, seed uint64, stagger sim.Time) []trafficItem {
	src := rng.New(seed)
	items := make([]trafficItem, count)
	for i := range items {
		items[i] = trafficItem{
			start: sim.Time(i+1) * stagger,
			src:   topology.NodeID(src.Intn(topo.Nodes())),
			dst:   topology.NodeID(src.Intn(topo.Nodes())),
			size:  64 + src.Intn(4096),
		}
		if stagger == 0 {
			items[i].start = sim.Time(1+src.Intn(4)) * sim.Microsecond
		}
	}
	return items
}

// runSequentialTraffic plays items through an unpartitioned network
// and returns per-item delivery times.
func runSequentialTraffic(topo topology.Topology, p Params, fid Fidelity, items []trafficItem) []sim.Time {
	eng := sim.New()
	net := MustNetwork(eng, topo, p, 1)
	net.SetFidelity(fid)
	out := make([]sim.Time, len(items))
	for i, it := range items {
		i, it := i, it
		eng.At(it.start, func() {
			net.Send(it.src, it.dst, it.size, func(at sim.Time, err error) {
				if err != nil {
					panic(err)
				}
				out[i] = at
			})
		})
	}
	eng.Run()
	return out
}

// runParallelTraffic plays items through a K-domain partitioned fabric
// and returns per-item delivery times. Each completion writes its own
// slice index, so concurrent windows never touch the same memory.
func runParallelTraffic(topo topology.Topology, p Params, fid Fidelity, k int, items []trafficItem) []sim.Time {
	return runParallelBounded(topo, p, fid, evenBounds(topo.Nodes(), k), 1, items)
}

// runParallelBounded is runParallelTraffic with explicit partition
// bounds and an adaptive-window cap.
func runParallelBounded(topo topology.Topology, p Params, fid Fidelity, bounds []int, maxWindow int, items []trafficItem) []sim.Time {
	doms := MustDomains(topo, p, 1, bounds)
	doms.SetMaxWindow(maxWindow)
	doms.SetFidelity(fid)
	out := make([]sim.Time, len(items))
	for i, it := range items {
		i, it := i, it
		sh := doms.ShardOf(it.src)
		sh.Eng.At(it.start, func() {
			sh.Send(it.src, it.dst, it.size, func(at sim.Time, err error) {
				if err != nil {
					panic(err)
				}
				out[i] = at
			})
		})
	}
	doms.Run()
	return out
}

func TestDomainsUncontendedMatchesSequential(t *testing.T) {
	topo := topology.NewTorus3D(6, 6, 6)
	items := randomTraffic(topo, 120, 7, 50*sim.Microsecond)
	for _, fid := range []Fidelity{FidelityPacket, FidelityFlow} {
		want := runSequentialTraffic(topo, Extoll, fid, items)
		for _, k := range []int{2, 3, 4, 6} {
			got := runParallelTraffic(topo, Extoll, fid, k, items)
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("fidelity %v K=%d: item %d (%d->%d, %dB) delivered at %v, sequential %v",
							fid, k, i, items[i].src, items[i].dst, items[i].size, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFatTreeDomainsUncontendedMatchesSequential: the owner-mapped
// partition of the Cluster fat tree must reproduce the sequential
// delivery times exactly on an uncontended network, for leaf-aligned
// domain counts across every fidelity.
func TestFatTreeDomainsUncontendedMatchesSequential(t *testing.T) {
	topo := topology.NewFatTree(8, 8, 4) // 64 nodes, leaf-aligned evenBounds for k | 8
	items := randomTraffic(topo, 120, 7, 50*sim.Microsecond)
	for _, fid := range []Fidelity{FidelityPacket, FidelityFlow} {
		want := runSequentialTraffic(topo, InfiniBandFDR, fid, items)
		for _, k := range []int{2, 4, 8} {
			got := runParallelTraffic(topo, InfiniBandFDR, fid, k, items)
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("fidelity %v K=%d: item %d (%d->%d, %dB) delivered at %v, sequential %v",
							fid, k, i, items[i].src, items[i].dst, items[i].size, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFatTreeDomainsAdaptiveMatchesSequential: adaptive widening on an
// owner-mapped partition must not move a single delivery time on an
// uncontended network — the gated protocol only changes barrier
// placement, never event timestamps.
func TestFatTreeDomainsAdaptiveMatchesSequential(t *testing.T) {
	topo := topology.NewFatTree(8, 8, 4)
	items := randomTraffic(topo, 120, 7, 50*sim.Microsecond)
	want := runSequentialTraffic(topo, InfiniBandFDR, FidelityPacket, items)
	for _, k := range []int{2, 4} {
		bounds := evenBounds(topo.Nodes(), k)
		got := runParallelBounded(topo, InfiniBandFDR, FidelityPacket, bounds, 8, items)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d adaptive deliveries diverge from sequential", k)
		}
	}
}

func TestDomainsContendedRepeatablePerK(t *testing.T) {
	topo := topology.NewTorus3D(5, 5, 5)
	items := randomTraffic(topo, 200, 11, 0) // heavy collisions
	for _, k := range []int{2, 4} {
		a := runParallelTraffic(topo, Extoll, FidelityPacket, k, items)
		b := runParallelTraffic(topo, Extoll, FidelityPacket, k, items)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("K=%d: identical contended runs diverged", k)
		}
	}
}

func TestFatTreeDomainsContendedRepeatablePerK(t *testing.T) {
	topo := topology.NewFatTree(4, 8, 2)
	items := randomTraffic(topo, 200, 11, 0) // heavy collisions
	for _, k := range []int{2, 4} {
		a := runParallelTraffic(topo, InfiniBandFDR, FidelityPacket, k, items)
		b := runParallelTraffic(topo, InfiniBandFDR, FidelityPacket, k, items)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("K=%d: identical contended fat-tree runs diverged", k)
		}
	}
}

func TestDomainsContendedConservesTraffic(t *testing.T) {
	topo := topology.NewTorus3D(5, 5, 5)
	items := randomTraffic(topo, 200, 13, 0)
	var wantBytes uint64
	for _, it := range items {
		wantBytes += uint64(it.size)
	}
	doms := MustDomains(topo, Extoll, 1, evenBounds(topo.Nodes(), 3))
	for _, it := range items {
		it := it
		sh := doms.ShardOf(it.src)
		sh.Eng.At(it.start, func() {
			sh.Send(it.src, it.dst, it.size, func(sim.Time, error) {})
		})
	}
	doms.Run()
	st := doms.Stats()
	if st.Messages != uint64(len(items)) {
		t.Fatalf("messages %d, want %d", st.Messages, len(items))
	}
	if st.BytesDelivered != wantBytes {
		t.Fatalf("bytes delivered %d, want %d (no message may be lost across boundaries)",
			st.BytesDelivered, wantBytes)
	}
	if st.CrossMessages == 0 {
		t.Fatal("expected some cross-domain messages on a 3-way split")
	}
	ks := doms.KernelStats()
	if ks.Domains != 3 || ks.CrossEvents == 0 {
		t.Fatalf("kernel stats %+v lack cross-domain evidence", ks)
	}
}

func TestNewDomainsValidation(t *testing.T) {
	topo := topology.NewTorus3D(4, 4, 4)
	if _, err := NewDomains(topo, Extoll, 1, []int{0, 64}); err != nil {
		t.Fatalf("valid single-domain partition rejected: %v", err)
	}
	bad := Extoll
	bad.PacketErrorRate = 0.01
	if _, err := NewDomains(topo, bad, 1, []int{0, 32, 64}); err == nil {
		t.Fatal("error injection accepted under partitioned kernel")
	}
	if _, err := NewDomains(topo, Extoll, 1, []int{0, 32, 48}); err == nil {
		t.Fatal("non-covering bounds accepted")
	}
	if _, err := NewDomains(topo, Extoll, 1, []int{0, 40, 32, 64}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
	// The fat tree has no node-major link layout but carries a
	// link-ownership map, so partitioning it is now supported.
	ft := topology.NewFatTree(4, 4, 2)
	if _, err := NewDomains(ft, InfiniBandFDR, 1, []int{0, 8, 16}); err != nil {
		t.Fatalf("fat tree (owner-mapped links) rejected: %v", err)
	}
	// A crossbar has neither layout and stays unpartitionable at K>1;
	// at K=1 the one shard is the plain network, faults included.
	xb := topology.NewCrossbar(16)
	if _, err := NewDomains(xb, InfiniBandFDR, 1, []int{0, 8, 16}); err == nil {
		t.Fatal("crossbar (no link ownership) accepted")
	}
	if _, err := NewDomains(xb, bad, 1, []int{0, 16}); err != nil {
		t.Fatalf("K=1 crossbar with error injection rejected: %v", err)
	}
	// The error-rate rejection is a typed error callers can match.
	bad2 := Extoll
	bad2.PacketErrorRate = 0.01
	if _, err := NewDomains(topo, bad2, 1, []int{0, 32, 64}); !errors.Is(err, ErrPartitionUnsupported) {
		t.Fatalf("error-rate rejection %v is not ErrPartitionUnsupported", err)
	}
}

// TestFatTreeDomainsConservesTraffic mirrors the torus conservation
// check on the owner-mapped layout: every byte sent must be booked
// delivered on some shard, and cross-leaf sends between domains must
// ride the cross-domain path.
func TestFatTreeDomainsConservesTraffic(t *testing.T) {
	topo := topology.NewFatTree(4, 8, 2)
	items := randomTraffic(topo, 200, 13, 0)
	var wantBytes uint64
	for _, it := range items {
		wantBytes += uint64(it.size)
	}
	doms := MustDomains(topo, InfiniBandFDR, 1, evenBounds(topo.Nodes(), 4))
	for _, it := range items {
		it := it
		sh := doms.ShardOf(it.src)
		sh.Eng.At(it.start, func() {
			sh.Send(it.src, it.dst, it.size, func(sim.Time, error) {})
		})
	}
	doms.Run()
	st := doms.Stats()
	if st.Messages != uint64(len(items)) {
		t.Fatalf("messages %d, want %d", st.Messages, len(items))
	}
	if st.BytesDelivered != wantBytes {
		t.Fatalf("bytes delivered %d, want %d", st.BytesDelivered, wantBytes)
	}
	if st.CrossMessages == 0 {
		t.Fatal("expected cross-domain messages on a 4-way fat-tree split")
	}
	if u := doms.MaxLinkUtilisation(); u <= 0 || u > 1 {
		t.Fatalf("owner-mapped max link utilisation %v out of (0,1]", u)
	}
}

// TestFatTreeLinkOwnerPartition pins the ownership map: every link
// anchors to a valid node, node links to their own node, switch links
// to the leaf's first node.
func TestFatTreeLinkOwnerPartition(t *testing.T) {
	f := topology.NewFatTree(4, 3, 2)
	for l := 0; l < f.Links(); l++ {
		owner := f.LinkOwner(topology.LinkID(l))
		if int(owner) < 0 || int(owner) >= f.Nodes() {
			t.Fatalf("link %d anchors to out-of-range node %d", l, owner)
		}
		if l < 2*f.Nodes() && int(owner) != l/2 {
			t.Fatalf("node link %d anchors to %d, want %d", l, owner, l/2)
		}
		if l >= 2*f.Nodes() {
			leaf := (l - 2*f.Nodes()) / (2 * f.Spines)
			if int(owner) != leaf*f.NodesPerLeaf {
				t.Fatalf("switch link %d anchors to %d, want leaf %d's first node %d",
					l, owner, leaf, leaf*f.NodesPerLeaf)
			}
		}
	}
	// Leaf-aligned bounds put every route's links inside the two
	// endpoint domains: local exactly when the endpoints share one.
	doms := MustDomains(f, InfiniBandFDR, 1, []int{0, 4, 8, 12})
	for s := 0; s < f.Nodes(); s++ {
		for d := 0; d < f.Nodes(); d++ {
			src, dst := topology.NodeID(s), topology.NodeID(d)
			route := f.Route(src, dst)
			if len(route) == 0 {
				continue
			}
			local := doms.ShardOf(src).routeLocal(route)
			if want := doms.Owner(src) == doms.Owner(dst); local != want {
				t.Fatalf("route %d->%d local=%v, want %v", s, d, local, want)
			}
		}
	}
}

func TestDomainsOwnerAndShardOf(t *testing.T) {
	topo := topology.NewTorus3D(4, 4, 4)
	doms := MustDomains(topo, Extoll, 1, []int{0, 16, 32, 64})
	cases := map[topology.NodeID]int{0: 0, 15: 0, 16: 1, 31: 1, 32: 2, 63: 2}
	for node, want := range cases {
		if got := doms.Owner(node); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", node, got, want)
		}
		if doms.ShardOf(node) != doms.Shard(want) {
			t.Fatalf("ShardOf(%d) is not shard %d", node, want)
		}
	}
	sorted := sort.IntsAreSorted(doms.Bounds())
	if !sorted {
		t.Fatal("bounds not sorted")
	}
}
