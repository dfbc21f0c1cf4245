package topology

import (
	"fmt"

	"repro/internal/fastdiv"
)

// Torus3D is a 3-dimensional torus with dimension-ordered routing
// (X, then Y, then Z), matching the 6-link EXTOLL NIC described in the
// paper. Each node owns 6 outgoing links: +X, -X, +Y, -Y, +Z, -Z, in
// that order, so link IDs are node*6 + direction. X, Y and Z must not
// change after NewTorus3D: it stores divisors made from them.
type Torus3D struct {
	X, Y, Z int

	// divX and divY divide by X and Y with a multiply: Coord runs twice
	// per route. A torus built as a struct literal has neither, and
	// Coord makes them on each call instead of storing them, because K
	// domain goroutines share one torus.
	divX, divY fastdiv.Divisor
}

// Direction indices for a node's six torus links.
const (
	DirXPlus = iota
	DirXMinus
	DirYPlus
	DirYMinus
	DirZPlus
	DirZMinus
	torusDegree
)

// NewTorus3D returns an X x Y x Z torus. All dimensions must be >= 1.
func NewTorus3D(x, y, z int) *Torus3D {
	if x < 1 || y < 1 || z < 1 {
		panic(fmt.Sprintf("topology: invalid torus %dx%dx%d", x, y, z))
	}
	return &Torus3D{X: x, Y: y, Z: z, divX: fastdiv.New(uint64(x)), divY: fastdiv.New(uint64(y))}
}

// Name implements Topology.
func (t *Torus3D) Name() string { return fmt.Sprintf("torus3d-%dx%dx%d", t.X, t.Y, t.Z) }

// Nodes implements Topology.
func (t *Torus3D) Nodes() int { return t.X * t.Y * t.Z }

// Links implements Topology. Every node has six outgoing links even in
// degenerate dimensions; unused links are simply never routed over.
func (t *Torus3D) Links() int { return t.Nodes() * torusDegree }

// LinkDegree implements NodeMajorLinks: node n owns links
// [n*6, (n+1)*6).
func (t *Torus3D) LinkDegree() int { return torusDegree }

// Coord returns the (x, y, z) coordinates of node id.
func (t *Torus3D) Coord(id NodeID) (x, y, z int) {
	if uint(id) >= uint(t.Nodes()) {
		badNode(id, t)
	}
	divX, divY := t.divX, t.divY
	if divX == (fastdiv.Divisor{}) {
		divX, divY = fastdiv.New(uint64(t.X)), fastdiv.New(uint64(t.Y))
	}
	row, ux := divX.DivMod(uint64(id))
	uz, uy := divY.DivMod(row)
	return int(ux), int(uy), int(uz)
}

// ID returns the node at coordinates (x, y, z), taken modulo each
// dimension so callers can address neighbours without wrapping
// manually.
func (t *Torus3D) ID(x, y, z int) NodeID {
	x = mod(x, t.X)
	y = mod(y, t.Y)
	z = mod(z, t.Z)
	return NodeID(x + y*t.X + z*t.X*t.Y)
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// step returns the shortest signed step count from a to b, both in
// [0, m), in a ring of size m, preferring the positive direction on
// ties (deterministic).
func step(a, b, m int) int {
	fwd := b - a
	if fwd < 0 {
		fwd += m
	}
	bwd := fwd - m // negative
	if fwd <= -bwd {
		return fwd
	}
	return bwd
}

// Route implements Topology using dimension-ordered shortest-path
// routing: resolve X displacement first, then Y, then Z. Deterministic
// and deadlock-free (the property EXTOLL's hardware routing relies on).
func (t *Torus3D) Route(src, dst NodeID) []LinkID {
	if h := t.Hops(src, dst); h > 0 {
		// One allocation whatever the distance: the length is known.
		return t.AppendRoute(make([]LinkID, 0, h), src, dst)
	}
	return nil
}

// AppendRoute implements Topology.
func (t *Torus3D) AppendRoute(buf []LinkID, src, dst NodeID) []LinkID {
	sx, sy, sz := t.Coord(src)
	dx, dy, dz := t.Coord(dst)
	buf, node := t.walk(buf, int(src), sx, dx, t.X, 1, DirXPlus)
	buf, node = t.walk(buf, node, sy, dy, t.Y, t.X, DirYPlus)
	buf, _ = t.walk(buf, node, sz, dz, t.Z, t.X*t.Y, DirZPlus)
	return buf
}

// walk appends the links that take node from coordinate cur to target
// along one dimension — a ring of size nodes, stride apart in node
// index, whose positive direction is plus — and returns the node
// reached.
func (t *Torus3D) walk(buf []LinkID, node, cur, target, size, stride, plus int) ([]LinkID, int) {
	s, dir, inc := step(cur, target, size), plus, 1
	if s < 0 {
		s, dir, inc = -s, plus+1, -1
	}
	for ; s > 0; s-- {
		buf = append(buf, LinkID(node*torusDegree+dir))
		next := cur + inc
		switch {
		case next == size:
			next = 0
		case next < 0:
			next = size - 1
		}
		node += (next - cur) * stride
		cur = next
	}
	return buf, node
}

// Hops implements HopCounter: the dimension-ordered route length is
// the sum of the per-dimension shortest ring distances, computed
// without materializing the route.
func (t *Torus3D) Hops(src, dst NodeID) int {
	sx, sy, sz := t.Coord(src)
	dx, dy, dz := t.Coord(dst)
	return absStep(step(sx, dx, t.X)) + absStep(step(sy, dy, t.Y)) + absStep(step(sz, dz, t.Z))
}

// Neighbours returns the six nodes one link away from id, in link
// direction order (+X, -X, +Y, -Y, +Z, -Z): Neighbours(id)[d] is the
// far end of link id*6+d. Each is what ID gives for the coordinate one
// step along that direction, without ID's modulo: in a ring of one
// node both neighbours are id itself, in a ring of two both are the
// other node.
func (t *Torus3D) Neighbours(id NodeID) [torusDegree]NodeID {
	x, y, z := t.Coord(id)
	sy, sz := t.X, t.X*t.Y
	return [...]NodeID{
		id + NodeID(ringStep(x, t.X, 1)), id + NodeID(ringStep(x, t.X, -1)),
		id + NodeID(sy*ringStep(y, t.Y, 1)), id + NodeID(sy*ringStep(y, t.Y, -1)),
		id + NodeID(sz*ringStep(z, t.Z, 1)), id + NodeID(sz*ringStep(z, t.Z, -1)),
	}
}

// OneHop implements NodeMajorLinks: it compares dst - src with the six
// steps of Neighbours in link direction order, so that in a ring of two
// it picks the + link, as step does. Loopback is not one hop.
func (t *Torus3D) OneHop(src, dst NodeID) (LinkID, bool) {
	x, y, z := t.Coord(src)
	if uint(dst) >= uint(t.Nodes()) {
		badNode(dst, t)
	}
	dir, sy, sz := DirXPlus, t.X, t.X*t.Y
	switch int(dst - src) {
	case 0:
		return 0, false
	case ringStep(x, t.X, 1): // DirXPlus
	case ringStep(x, t.X, -1):
		dir = DirXMinus
	case sy * ringStep(y, t.Y, 1):
		dir = DirYPlus
	case sy * ringStep(y, t.Y, -1):
		dir = DirYMinus
	case sz * ringStep(z, t.Z, 1):
		dir = DirZPlus
	case sz * ringStep(z, t.Z, -1):
		dir = DirZMinus
	default:
		return 0, false
	}
	return LinkID(int(src)*torusDegree + dir), true
}

// ringStep returns the coordinate change of one step by inc (+1 or -1)
// from c in a ring of size m, wrapping with a compare.
func ringStep(c, m, inc int) int {
	switch next := c + inc; {
	case next == m:
		return -c
	case next < 0:
		return m - 1
	default:
		return inc
	}
}

func absStep(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
