// Package topology models the interconnect topologies of the DEEP
// system: the EXTOLL 3D torus of the Booster, the InfiniBand fat tree
// of the Cluster.
//
// A Topology enumerates nodes (compute endpoints) and provides routing:
// the ordered list of links a packet traverses from one node to
// another. Links are identified by small dense integers so the fabric
// layer can keep per-link state in slices.
package topology

import "fmt"

// NodeID identifies a compute endpoint within one topology.
type NodeID int

// LinkID identifies a unidirectional link within one topology.
type LinkID int

// Topology describes a network graph with deterministic routing.
type Topology interface {
	// Nodes returns the number of endpoints.
	Nodes() int
	// Links returns the number of unidirectional links.
	Links() int
	// Route returns the sequence of links a packet takes from src to
	// dst. An empty route means src == dst (loopback).
	Route(src, dst NodeID) []LinkID
	// AppendRoute is Route into the caller's buffer: it appends the
	// links to buf and returns the extended slice, allocating only when
	// buf is too small.
	AppendRoute(buf []LinkID, src, dst NodeID) []LinkID
	// Name returns a short diagnostic name, e.g. "torus3d-4x4x4".
	Name() string
}

// NodeMajorLinks is implemented by topologies whose link identifiers
// are node-major: link IDs of node n occupy [n*LinkDegree(),
// (n+1)*LinkDegree()), the links leaving node n. The
// fabric's spatial domain decomposition needs it to give each domain
// a contiguous link range; the torus is the only topology it
// partitions.
type NodeMajorLinks interface {
	LinkDegree() int
	// OneHop returns the link from src to dst when the route between
	// them is that one link, without building the route: a partition
	// finds a neighbour message's link, and so its owner, with it.
	OneHop(src, dst NodeID) (LinkID, bool)
}

// HopCounter is implemented by topologies that can count route hops
// without materializing the route. Cost-model transports (cbp, mpi)
// query hop counts once per message, so the allocation-free path
// matters at scale.
type HopCounter interface {
	Hops(src, dst NodeID) int
}

// Hops returns the number of links on the route from src to dst.
func Hops(t Topology, src, dst NodeID) int {
	if hc, ok := t.(HopCounter); ok {
		return hc.Hops(src, dst)
	}
	return len(t.Route(src, dst))
}

// Diameter returns the maximum hop count over all node pairs. It is
// O(n^2 * route) and intended for tests and small analysis runs.
func Diameter(t Topology) int {
	max := 0
	n := t.Nodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if h := Hops(t, NodeID(s), NodeID(d)); h > max {
				max = h
			}
		}
	}
	return max
}

// validateNode panics when id is outside [0, t.Nodes()); routing with
// a bad endpoint is always a caller bug.
func validateNode(id NodeID, t Topology) {
	if uint(id) >= uint(t.Nodes()) {
		badNode(id, t)
	}
}

// badNode is validateNode's panic, apart so that a caller with the
// node count at hand pays one compare and renders the topology's name
// only on the way out.
func badNode(id NodeID, t Topology) {
	panic(fmt.Sprintf("topology: node %d out of range [0,%d) in %s", id, t.Nodes(), t.Name()))
}
