package topology

import "fmt"

// Torus3D is a 3-dimensional torus with dimension-ordered routing
// (X, then Y, then Z), matching the 6-link EXTOLL NIC described in the
// paper. Each node owns 6 outgoing links: +X, -X, +Y, -Y, +Z, -Z, in
// that order, so link IDs are node*6 + direction.
type Torus3D struct {
	X, Y, Z int

	// name memoizes Name(): the routing validators pass it on every
	// call, and rendering it each time dominated 100k-node sweeps.
	name string
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
	return &Torus3D{X: x, Y: y, Z: z, name: fmt.Sprintf("torus3d-%dx%dx%d", x, y, z)}
}

// Name implements Topology.
func (t *Torus3D) Name() string {
	if t.name == "" {
		t.name = fmt.Sprintf("torus3d-%dx%dx%d", t.X, t.Y, t.Z)
	}
	return t.name
}

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
	validateNode(id, t.Nodes(), t.Name())
	n := int(id)
	row := n / t.X
	z = row / t.Y
	return n - row*t.X, row - z*t.Y, z
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
	validateNode(src, t.Nodes(), t.Name())
	validateNode(dst, t.Nodes(), t.Name())
	sx, sy, sz := t.Coord(src)
	dx, dy, dz := t.Coord(dst)
	return absStep(step(sx, dx, t.X)) + absStep(step(sy, dy, t.Y)) + absStep(step(sz, dz, t.Z))
}

func absStep(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
