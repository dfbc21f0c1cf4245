package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTorusCoordRoundTrip(t *testing.T) {
	tor := NewTorus3D(3, 4, 5)
	for i := 0; i < tor.Nodes(); i++ {
		x, y, z := tor.Coord(NodeID(i))
		if got := tor.ID(x, y, z); got != NodeID(i) {
			t.Fatalf("coord round trip %d -> (%d,%d,%d) -> %d", i, x, y, z, got)
		}
	}
}

func TestTorusSelfRoute(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	if r := tor.Route(5, 5); len(r) != 0 {
		t.Fatalf("self route not empty: %v", r)
	}
}

func TestTorusNeighbourIsOneHop(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	src := tor.ID(1, 2, 3)
	for _, dst := range []NodeID{
		tor.ID(2, 2, 3), tor.ID(0, 2, 3),
		tor.ID(1, 3, 3), tor.ID(1, 1, 3),
		tor.ID(1, 2, 0), tor.ID(1, 2, 2),
	} {
		if h := Hops(tor, src, dst); h != 1 {
			t.Fatalf("neighbour %d at %d hops", dst, h)
		}
	}
}

func TestTorusWraparound(t *testing.T) {
	tor := NewTorus3D(8, 1, 1)
	// 0 -> 7 should wrap backwards: 1 hop, not 7.
	if h := Hops(tor, tor.ID(0, 0, 0), tor.ID(7, 0, 0)); h != 1 {
		t.Fatalf("wraparound hops = %d, want 1", h)
	}
	// 0 -> 4 is the antipode: 4 hops either way.
	if h := Hops(tor, tor.ID(0, 0, 0), tor.ID(4, 0, 0)); h != 4 {
		t.Fatalf("antipode hops = %d, want 4", h)
	}
}

func TestTorusDiameter(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	// Diameter of a k-ary torus is sum of floor(k_i/2).
	if d := Diameter(tor); d != 6 {
		t.Fatalf("4x4x4 torus diameter = %d, want 6", d)
	}
	tor2 := NewTorus3D(2, 3, 5)
	if d := Diameter(tor2); d != 1+1+2 {
		t.Fatalf("2x3x5 torus diameter = %d, want 4", d)
	}
}

// TestTorusRouteConnectivity verifies, property-style, that following
// the returned links really leads from src to dst.
func TestTorusRouteConnectivity(t *testing.T) {
	tor := NewTorus3D(3, 4, 2)
	n := tor.Nodes()
	check := func(s8, d8 uint8) bool {
		src := NodeID(int(s8) % n)
		dst := NodeID(int(d8) % n)
		cur := src
		for _, l := range tor.Route(src, dst) {
			from, to := linkEndpoints(tor, l)
			if from != cur {
				return false
			}
			cur = to
		}
		return cur == dst
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusRouteIsMinimal(t *testing.T) {
	tor := NewTorus3D(5, 4, 3)
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		src := NodeID(r.Intn(tor.Nodes()))
		dst := NodeID(r.Intn(tor.Nodes()))
		sx, sy, sz := tor.Coord(src)
		dx, dy, dz := tor.Coord(dst)
		want := abs(step(sx, dx, 5)) + abs(step(sy, dy, 4)) + abs(step(sz, dz, 3))
		if got := Hops(tor, src, dst); got != want {
			t.Fatalf("route %d->%d has %d hops, want %d", src, dst, got, want)
		}
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestTorusDimensionOrdered(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	src, dst := tor.ID(0, 0, 0), tor.ID(2, 2, 2)
	route := tor.Route(src, dst)
	// Links must be grouped X, then Y, then Z.
	phase := 0
	for _, l := range route {
		d := int(l) % 6
		var p int
		switch d {
		case DirXPlus, DirXMinus:
			p = 0
		case DirYPlus, DirYMinus:
			p = 1
		default:
			p = 2
		}
		if p < phase {
			t.Fatalf("route not dimension ordered: %v", route)
		}
		phase = p
	}
}

func TestFatTreeRoutes(t *testing.T) {
	ft := NewFatTree(4, 3, 4) // 12 nodes
	// Same node.
	if r := ft.Route(0, 0); len(r) != 0 {
		t.Fatalf("self route: %v", r)
	}
	// Same leaf: 2 hops.
	if h := Hops(ft, 0, 1); h != 2 {
		t.Fatalf("same-leaf hops = %d, want 2", h)
	}
	// Different leaf: 4 hops.
	if h := Hops(ft, 0, 11); h != 4 {
		t.Fatalf("cross-leaf hops = %d, want 4", h)
	}
}

func TestFatTreeLeaf(t *testing.T) {
	ft := NewFatTree(4, 3, 2)
	for i := 0; i < ft.Nodes(); i++ {
		if got, want := ft.Leaf(NodeID(i)), i/4; got != want {
			t.Fatalf("leaf(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestFatTreeLinkIDsDisjoint(t *testing.T) {
	ft := NewFatTree(2, 4, 3)
	seen := map[LinkID]bool{}
	reg := func(l LinkID) {
		if int(l) < 0 || int(l) >= ft.Links() {
			t.Fatalf("link %d out of range [0,%d)", l, ft.Links())
		}
		seen[l] = true
	}
	for s := 0; s < ft.Nodes(); s++ {
		for d := 0; d < ft.Nodes(); d++ {
			for _, l := range ft.Route(NodeID(s), NodeID(d)) {
				reg(l)
			}
		}
	}
	// Every node link must appear; spine links only those selected by
	// the deterministic spreading.
	if len(seen) < 2*ft.Nodes() {
		t.Fatalf("only %d distinct links used", len(seen))
	}
}

func TestFatTreeSpineSpreading(t *testing.T) {
	ft := NewFatTree(1, 4, 4)
	// Destinations on different leaves should use different spines.
	spines := map[LinkID]bool{}
	for d := 1; d < 4; d++ {
		route := ft.Route(0, NodeID(d))
		if len(route) != 4 {
			t.Fatalf("route length %d", len(route))
		}
		spines[route[1]] = true
	}
	if len(spines) < 2 {
		t.Fatalf("no spine spreading: %v", spines)
	}
}

func TestValidatePanics(t *testing.T) {
	tor := NewTorus3D(2, 2, 2)
	ft := NewFatTree(2, 2, 1)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{tor.Name(), func() { tor.Route(-1, 0) }},
		{tor.Name(), func() { tor.Route(0, 99) }},
		{tor.Name(), func() { tor.Coord(8) }},
		{tor.Name(), func() { tor.Neighbours(8) }},
		{tor.Name(), func() { tor.OneHop(8, 0) }},
		{tor.Name(), func() { tor.OneHop(0, 8) }},
		{tor.Name(), func() { tor.OneHop(0, -1) }},
		{"torus3d-2x1x1", func() { (&Torus3D{X: 2, Y: 1, Z: 1}).Hops(0, 2) }},
		{ft.Name(), func() { ft.Hops(0, 4) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "out of range") || !strings.Contains(msg, c.name) {
					t.Errorf("out-of-range node on %s: panic %q", c.name, msg)
				}
			}()
			c.fn()
		}()
	}
}

func BenchmarkTorusRoute(b *testing.B) {
	tor := NewTorus3D(8, 8, 8)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NodeID(r.Intn(512))
		dst := NodeID(r.Intn(512))
		_ = tor.Route(src, dst)
	}
}

// linkEndpoints returns the (from, to) nodes of torus link l, the
// reference the routing tests walk routes against.
func linkEndpoints(t *Torus3D, l LinkID) (from, to NodeID) {
	from = NodeID(int(l) / torusDegree)
	d := int(l) % torusDegree
	x, y, z := t.Coord(from)
	switch d {
	case DirXPlus:
		to = t.ID(x+1, y, z)
	case DirXMinus:
		to = t.ID(x-1, y, z)
	case DirYPlus:
		to = t.ID(x, y+1, z)
	case DirYMinus:
		to = t.ID(x, y-1, z)
	case DirZPlus:
		to = t.ID(x, y, z+1)
	case DirZMinus:
		to = t.ID(x, y, z-1)
	}
	return
}
