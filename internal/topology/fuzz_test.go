package topology

import (
	"slices"
	"testing"
)

// checkAppendRoute holds a topology's append form to its Route: into a
// nil buffer, and onto a dirty buffer too small for the route, it must
// add exactly the links Route returns and leave what was there alone.
func checkAppendRoute(t *testing.T, topo Topology, src, dst NodeID) {
	t.Helper()
	route := topo.Route(src, dst)
	if got := topo.AppendRoute(nil, src, dst); !slices.Equal(got, route) {
		t.Fatalf("AppendRoute(nil) = %v, Route = %v", got, route)
	}
	dirty := make([]LinkID, 1, 2)
	dirty[0] = -7
	dirty[:2][1] = -9
	got := topo.AppendRoute(dirty, src, dst)
	if got[0] != -7 || !slices.Equal(got[1:], route) {
		t.Fatalf("AppendRoute onto a dirty buffer = %v, want [-7] + %v", got, route)
	}
}

// FuzzTorusRoute checks the torus routing invariants for arbitrary
// shapes and endpoints: every route stays in bounds, walks the fabric
// link-by-link from src to dst, respects dimension order (all X moves,
// then Y, then Z, each dimension in one direction), and agrees with
// the allocation-free hop counter.
func FuzzTorusRoute(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), uint16(0), uint16(63))
	f.Add(uint8(1), uint8(1), uint8(1), uint16(0), uint16(0))
	f.Add(uint8(2), uint8(3), uint8(5), uint16(7), uint16(29))
	f.Add(uint8(8), uint8(1), uint8(1), uint16(0), uint16(4))
	f.Add(uint8(3), uint8(3), uint8(3), uint16(26), uint16(0))
	f.Fuzz(func(t *testing.T, x, y, z uint8, srcRaw, dstRaw uint16) {
		tor := NewTorus3D(int(x%8)+1, int(y%8)+1, int(z%8)+1)
		n := tor.Nodes()
		src := NodeID(int(srcRaw) % n)
		dst := NodeID(int(dstRaw) % n)
		route := tor.Route(src, dst)
		checkAppendRoute(t, tor, src, dst)
		if src == dst && len(route) != 0 {
			t.Fatalf("loopback route not empty: %v", route)
		}
		if got, want := len(route), tor.Hops(src, dst); got != want {
			t.Fatalf("route length %d != hops %d", got, want)
		}
		cur := src
		lastClass := -1
		dimDir := map[int]int{}
		for i, l := range route {
			if int(l) < 0 || int(l) >= tor.Links() {
				t.Fatalf("link %d out of bounds [0,%d)", l, tor.Links())
			}
			from, to := linkEndpoints(tor, l)
			if from != cur {
				t.Fatalf("hop %d starts at %d, expected %d", i, from, cur)
			}
			dir := int(l) % 6
			class := dir / 2 // 0=X, 1=Y, 2=Z
			if class < lastClass {
				t.Fatalf("hop %d violates dimension order: class %d after %d", i, class, lastClass)
			}
			if prev, ok := dimDir[class]; ok && prev != dir {
				t.Fatalf("hop %d reverses direction within dimension %d", i, class)
			}
			dimDir[class] = dir
			lastClass = class
			cur = to
		}
		if cur != dst {
			t.Fatalf("route ends at %d, want %d", cur, dst)
		}
	})
}

// FuzzFatTreeRoute checks the fat-tree routing invariants: routes are
// in bounds, have the up/down shape (2 links within a leaf, 4 across
// spines), traverse distinct links, and agree with the hop counter.
func FuzzFatTreeRoute(f *testing.F) {
	f.Add(uint8(16), uint8(2), uint8(8), uint16(0), uint16(17))
	f.Add(uint8(1), uint8(1), uint8(1), uint16(0), uint16(0))
	f.Add(uint8(4), uint8(4), uint8(2), uint16(3), uint16(5))
	f.Fuzz(func(t *testing.T, nplRaw, leavesRaw, spinesRaw uint8, srcRaw, dstRaw uint16) {
		ft := NewFatTree(int(nplRaw%16)+1, int(leavesRaw%8)+1, int(spinesRaw%8)+1)
		n := ft.Nodes()
		src := NodeID(int(srcRaw) % n)
		dst := NodeID(int(dstRaw) % n)
		route := ft.Route(src, dst)
		checkAppendRoute(t, ft, src, dst)
		if got, want := len(route), ft.Hops(src, dst); got != want {
			t.Fatalf("route length %d != hops %d", got, want)
		}
		seen := map[LinkID]bool{}
		for _, l := range route {
			if int(l) < 0 || int(l) >= ft.Links() {
				t.Fatalf("link %d out of bounds [0,%d)", l, ft.Links())
			}
			if seen[l] {
				t.Fatalf("route repeats link %d: %v", l, route)
			}
			seen[l] = true
		}
		switch {
		case src == dst:
			if len(route) != 0 {
				t.Fatalf("loopback route not empty: %v", route)
			}
		case ft.Leaf(src) == ft.Leaf(dst):
			if len(route) != 2 {
				t.Fatalf("intra-leaf route has %d links", len(route))
			}
			if route[0] != LinkID(2*int(src)) || route[1] != LinkID(2*int(dst)+1) {
				t.Fatalf("intra-leaf route malformed: %v", route)
			}
		default:
			if len(route) != 4 {
				t.Fatalf("cross-leaf route has %d links", len(route))
			}
			if route[0] != LinkID(2*int(src)) || route[3] != LinkID(2*int(dst)+1) {
				t.Fatalf("cross-leaf route endpoints malformed: %v", route)
			}
			// The middle links must traverse one spine: an up link from
			// the source leaf and a down link into the destination leaf,
			// both via the same spine switch.
			base := 2 * ft.Nodes()
			up, down := int(route[1])-base, int(route[2])-base
			if up < 0 || up%2 != 0 || down < 1 || down%2 != 1 {
				t.Fatalf("spine links malformed: %v", route)
			}
			upLeaf, upSpine := up/2/ft.Spines, up/2%ft.Spines
			downLeaf, downSpine := (down-1)/2/ft.Spines, (down-1)/2%ft.Spines
			if upLeaf != ft.Leaf(src) || downLeaf != ft.Leaf(dst) || upSpine != downSpine {
				t.Fatalf("spine traversal mismatched: %v", route)
			}
		}
	})
}

// refTorus is the division-based reference the torus is held to: its
// coordinates, ring distances, neighbours and routes use / and % and
// the wrapping ID, as the torus did before it divided by multiplying.
type refTorus struct{ x, y, z int }

func (r refTorus) coord(id NodeID) (x, y, z int) {
	n := int(id)
	return n % r.x, n / r.x % r.y, n / (r.x * r.y)
}

func (r refTorus) id(x, y, z int) NodeID {
	return NodeID(mod(x, r.x) + mod(y, r.y)*r.x + mod(z, r.z)*r.x*r.y)
}

// ring returns the signed shortest step from a to b in a ring of m,
// positive on ties.
func (r refTorus) ring(a, b, m int) int {
	fwd := mod(b-a, m)
	if fwd <= m-fwd {
		return fwd
	}
	return fwd - m
}

func (r refTorus) neighbours(id NodeID) [6]NodeID {
	x, y, z := r.coord(id)
	return [6]NodeID{
		r.id(x+1, y, z), r.id(x-1, y, z),
		r.id(x, y+1, z), r.id(x, y-1, z),
		r.id(x, y, z+1), r.id(x, y, z-1),
	}
}

func (r refTorus) route(src, dst NodeID) []LinkID {
	var links []LinkID
	c := [3]int{}
	c[0], c[1], c[2] = r.coord(src)
	var d [3]int
	d[0], d[1], d[2] = r.coord(dst)
	size := [3]int{r.x, r.y, r.z}
	for dim := 0; dim < 3; dim++ {
		s := r.ring(c[dim], d[dim], size[dim])
		dir, inc := 2*dim, 1
		if s < 0 {
			s, dir, inc = -s, 2*dim+1, -1
		}
		for ; s > 0; s-- {
			links = append(links, LinkID(int(r.id(c[0], c[1], c[2]))*6+dir))
			c[dim] = mod(c[dim]+inc, size[dim])
		}
	}
	return links
}

// FuzzTorusCoord holds Coord, Hops, Neighbours and AppendRoute to the
// division-based reference on shapes up to 1024 a side, both for a
// torus from NewTorus3D (which divides by multiplying with stored
// reciprocals) and for one built as a struct literal (which has none),
// and OneHop to the route: it finds a link exactly when the route is
// that one link.
func FuzzTorusCoord(f *testing.F) {
	f.Add(uint16(4), uint16(4), uint16(4), uint32(0), uint32(63))
	f.Add(uint16(1), uint16(1), uint16(1), uint32(0), uint32(0))
	f.Add(uint16(2), uint16(1), uint16(2), uint32(3), uint32(0))
	f.Add(uint16(47), uint16(47), uint16(47), uint32(103822), uint32(52000))
	f.Add(uint16(1023), uint16(1023), uint16(1023), uint32(1<<30-1), uint32(12345))
	f.Add(uint16(1023), uint16(0), uint16(7), uint32(7000), uint32(1023))
	// Every node of every shape up to 4 a side, rings of one and two
	// nodes included.
	for x := uint16(0); x < 4; x++ {
		for y := uint16(0); y < 4; y++ {
			for z := uint16(0); z < 4; z++ {
				n := uint32(x+1) * uint32(y+1) * uint32(z+1)
				for id := uint32(0); id < n; id++ {
					f.Add(x, y, z, id, n-1-id)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, x, y, z uint16, srcRaw, dstRaw uint32) {
		ref := refTorus{int(x%1024) + 1, int(y%1024) + 1, int(z%1024) + 1}
		n := ref.x * ref.y * ref.z
		src, dst := NodeID(int(srcRaw)%n), NodeID(int(dstRaw)%n)
		for _, tor := range []*Torus3D{
			NewTorus3D(ref.x, ref.y, ref.z),
			{X: ref.x, Y: ref.y, Z: ref.z},
		} {
			for _, id := range []NodeID{src, dst, 0, NodeID(n - 1)} {
				gx, gy, gz := tor.Coord(id)
				wx, wy, wz := ref.coord(id)
				if gx != wx || gy != wy || gz != wz {
					t.Fatalf("%s: Coord(%d) = (%d,%d,%d), want (%d,%d,%d)", tor.Name(), id, gx, gy, gz, wx, wy, wz)
				}
				if got, want := tor.Neighbours(id), ref.neighbours(id); got != want {
					t.Fatalf("%s: Neighbours(%d) = %v, want %v", tor.Name(), id, got, want)
				}
			}
			want := ref.route(src, dst)
			if got := tor.AppendRoute(nil, src, dst); !slices.Equal(got, want) {
				t.Fatalf("%s: AppendRoute(%d, %d) = %v, want %v", tor.Name(), src, dst, got, want)
			}
			if got := tor.Hops(src, dst); got != len(want) {
				t.Fatalf("%s: Hops(%d, %d) = %d, want %d", tor.Name(), src, dst, got, len(want))
			}
			if l, ok := tor.OneHop(src, dst); ok != (len(want) == 1) || ok && l != want[0] {
				t.Fatalf("%s: OneHop(%d, %d) = %d, %v; route %v", tor.Name(), src, dst, l, ok, want)
			}
		}
	})
}
