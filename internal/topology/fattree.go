package topology

import "fmt"

// FatTree is a two-level fat tree (leaf/spine), the shape of the
// InfiniBand fabric on the DEEP Cluster side. Nodes attach to leaf
// switches; every leaf connects to every spine. Routing is the usual
// up/down: up to a deterministically chosen spine (hash of the
// destination, giving static load spreading like IB's LMC-based
// multipathing), then down to the destination's leaf.
//
// Link numbering (all unidirectional):
//
//	node n up-link            -> link 2n
//	node n down-link          -> link 2n+1 (leaf->node)
//	leaf l to spine s up      -> nodeLinks + 2*(l*spines+s)
//	spine s to leaf l down    -> nodeLinks + 2*(l*spines+s) + 1
type FatTree struct {
	NodesPerLeaf int
	Leaves       int
	Spines       int
}

// NewFatTree builds a fat tree with the given shape. A Spines count
// equal to NodesPerLeaf gives full bisection bandwidth;
// fewer spines model oversubscription.
func NewFatTree(nodesPerLeaf, leaves, spines int) *FatTree {
	if nodesPerLeaf < 1 || leaves < 1 || spines < 1 {
		panic(fmt.Sprintf("topology: invalid fat tree %d/%d/%d", nodesPerLeaf, leaves, spines))
	}
	return &FatTree{NodesPerLeaf: nodesPerLeaf, Leaves: leaves, Spines: spines}
}

// Name implements Topology.
func (f *FatTree) Name() string {
	return fmt.Sprintf("fattree-%dx%d-s%d", f.NodesPerLeaf, f.Leaves, f.Spines)
}

// Nodes implements Topology.
func (f *FatTree) Nodes() int { return f.NodesPerLeaf * f.Leaves }

// Links implements Topology.
func (f *FatTree) Links() int { return 2*f.Nodes() + 2*f.Leaves*f.Spines }

// Leaf returns the leaf switch index of node id.
func (f *FatTree) Leaf(id NodeID) int {
	validateNode(id, f)
	return int(id) / f.NodesPerLeaf
}

func (f *FatTree) nodeUp(id NodeID) LinkID   { return LinkID(2 * int(id)) }
func (f *FatTree) nodeDown(id NodeID) LinkID { return LinkID(2*int(id) + 1) }

func (f *FatTree) leafToSpine(leaf, spine int) LinkID {
	return LinkID(2*f.Nodes() + 2*(leaf*f.Spines+spine))
}

func (f *FatTree) spineToLeaf(leaf, spine int) LinkID {
	return LinkID(2*f.Nodes() + 2*(leaf*f.Spines+spine) + 1)
}

// spineFor deterministically spreads destination traffic over spines.
func (f *FatTree) spineFor(dst NodeID) int { return int(dst) % f.Spines }

// Route implements Topology.
func (f *FatTree) Route(src, dst NodeID) []LinkID { return f.AppendRoute(nil, src, dst) }

// AppendRoute implements Topology.
func (f *FatTree) AppendRoute(buf []LinkID, src, dst NodeID) []LinkID {
	sl, dl := f.Leaf(src), f.Leaf(dst) // Leaf validates the endpoints
	if src == dst {
		return buf
	}
	if sl == dl {
		// Same leaf: up to the leaf switch, straight back down.
		return append(buf, f.nodeUp(src), f.nodeDown(dst))
	}
	sp := f.spineFor(dst)
	return append(buf,
		f.nodeUp(src),
		f.leafToSpine(sl, sp),
		f.spineToLeaf(dl, sp),
		f.nodeDown(dst))
}

// Hops implements HopCounter: 2 links within a leaf, 4 across spines.
func (f *FatTree) Hops(src, dst NodeID) int {
	validateNode(src, f)
	validateNode(dst, f)
	switch {
	case src == dst:
		return 0
	case f.Leaf(src) == f.Leaf(dst):
		return 2
	default:
		return 4
	}
}
