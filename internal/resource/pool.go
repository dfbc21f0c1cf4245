// Package resource implements the resource-management layer of the
// DEEP stack — the role ParaStation Cluster Management plays in the
// paper: a registry of cluster and booster nodes, allocation policies
// (static owner-bound assignment as in conventional accelerated
// clusters versus dynamic pool assignment as enabled by the
// Cluster-Booster architecture, paper slides 6-8 and 21), including
// topology-aware contiguous sub-torus allocation for the EXTOLL
// booster, and an event-driven FCFS job scheduler with optional
// backfilling used by the assignment experiment.
package resource

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// NodeState tracks a node's availability.
type NodeState int

// Node lifecycle states.
const (
	NodeFree NodeState = iota
	NodeBusy
	NodeDown
)

// Policy selects how Alloc picks nodes from the free set.
type Policy int

// Allocation policies.
const (
	// FirstFit takes the lowest-numbered free nodes.
	FirstFit Policy = iota
	// Contiguous allocates an axis-aligned sub-torus (requires the pool
	// to be built over a Torus3D); it falls back to FirstFit when no
	// box fits.
	Contiguous
)

// Pool manages one homogeneous set of nodes (the booster, typically).
type Pool struct {
	state []NodeState
	torus *topology.Torus3D // non-nil enables Contiguous
	free  int

	// owner[i] is the static owner group of node i (or -1): static
	// assignment partitions the pool among cluster nodes.
	owner []int

	// Allocs and Rejections count allocation outcomes.
	Allocs     uint64
	Rejections uint64
}

// NewPool returns a pool of n free nodes with no topology.
func NewPool(n int) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("resource: pool of %d nodes", n))
	}
	p := &Pool{state: make([]NodeState, n), free: n, owner: make([]int, n)}
	for i := range p.owner {
		p.owner[i] = -1
	}
	return p
}

// NewTorusPool returns a pool over the given torus, enabling
// Contiguous allocation.
func NewTorusPool(t *topology.Torus3D) *Pool {
	p := NewPool(t.Nodes())
	p.torus = t
	return p
}

// Size returns the total node count.
func (p *Pool) Size() int { return len(p.state) }

// State returns node id's current lifecycle state.
func (p *Pool) State(id int) NodeState {
	p.checkID(id)
	return p.state[id]
}

// Free returns the number of free nodes.
func (p *Pool) Free() int { return p.free }

// PartitionOwners splits the pool evenly into groups of k consecutive
// nodes owned by owners 0, 1, 2, ... — the static accelerated-cluster
// wiring (each host owns its PCIe cards).
func (p *Pool) PartitionOwners(k int) {
	if k <= 0 || len(p.state)%k != 0 {
		panic(fmt.Sprintf("resource: cannot partition %d nodes into groups of %d", len(p.state), k))
	}
	for i := range p.state {
		p.owner[i] = i / k
	}
}

func (p *Pool) checkID(id int) {
	if id < 0 || id >= len(p.state) {
		panic(fmt.Sprintf("resource: node %d out of range [0,%d)", id, len(p.state)))
	}
}

// Alloc reserves n free nodes using the policy and returns their ids,
// or an error if fewer than n are free (no partial allocation).
func (p *Pool) Alloc(n int, policy Policy) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("resource: allocation of %d nodes", n)
	}
	if n > p.free {
		p.Rejections++
		return nil, fmt.Errorf("resource: %d nodes requested, %d free", n, p.free)
	}
	var ids []int
	if policy == Contiguous && p.torus != nil {
		ids = p.allocBox(n)
	}
	if ids == nil {
		ids = p.allocFirstFit(n, -1)
	}
	if ids == nil {
		p.Rejections++
		return nil, fmt.Errorf("resource: fragmentation prevented allocating %d nodes", n)
	}
	p.commit(ids)
	return ids, nil
}

// AllocOwned reserves n free nodes from the given owner's static
// group only — the baseline accelerated-cluster semantics where "the
// accelerators cannot act autonomously" and belong to one host.
func (p *Pool) AllocOwned(owner, n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("resource: allocation of %d nodes", n)
	}
	ids := p.allocFirstFit(n, owner)
	if ids == nil {
		p.Rejections++
		return nil, fmt.Errorf("resource: owner %d lacks %d free nodes", owner, n)
	}
	p.commit(ids)
	return ids, nil
}

// OwnedTotal returns how many nodes belong to owner.
func (p *Pool) OwnedTotal(owner int) int {
	total := 0
	for _, o := range p.owner {
		if o == owner {
			total++
		}
	}
	return total
}

func (p *Pool) allocFirstFit(n, owner int) []int {
	ids := make([]int, 0, n)
	for i, s := range p.state {
		if s == NodeFree && (owner < 0 || p.owner[i] == owner) {
			ids = append(ids, i)
			if len(ids) == n {
				return ids
			}
		}
	}
	return nil
}

// allocBox searches for an axis-aligned box of free torus nodes with
// volume >= n, preferring the smallest adequate box; returns the first
// n ids of the box in scan order, or nil.
func (p *Pool) allocBox(n int) []int {
	t := p.torus
	type box struct{ dx, dy, dz int }
	var boxes []box
	for dx := 1; dx <= t.X; dx++ {
		for dy := 1; dy <= t.Y; dy++ {
			for dz := 1; dz <= t.Z; dz++ {
				if dx*dy*dz >= n {
					boxes = append(boxes, box{dx, dy, dz})
				}
			}
		}
	}
	sort.Slice(boxes, func(i, j int) bool {
		vi, vj := boxes[i].dx*boxes[i].dy*boxes[i].dz, boxes[j].dx*boxes[j].dy*boxes[j].dz
		if vi != vj {
			return vi < vj
		}
		bi, bj := boxes[i], boxes[j]
		if bi.dx != bj.dx {
			return bi.dx < bj.dx
		}
		if bi.dy != bj.dy {
			return bi.dy < bj.dy
		}
		return bi.dz < bj.dz
	})
	for _, b := range boxes {
		for ox := 0; ox < t.X; ox++ {
			for oy := 0; oy < t.Y; oy++ {
				for oz := 0; oz < t.Z; oz++ {
					ids := p.boxIDs(ox, oy, oz, b.dx, b.dy, b.dz)
					if ids != nil {
						return ids[:n]
					}
				}
			}
		}
	}
	return nil
}

// boxIDs returns all node ids in the box if every one is free, else
// nil.
func (p *Pool) boxIDs(ox, oy, oz, dx, dy, dz int) []int {
	t := p.torus
	ids := make([]int, 0, dx*dy*dz)
	for x := 0; x < dx; x++ {
		for y := 0; y < dy; y++ {
			for z := 0; z < dz; z++ {
				id := int(t.ID(ox+x, oy+y, oz+z))
				if p.state[id] != NodeFree {
					return nil
				}
				ids = append(ids, id)
			}
		}
	}
	return ids
}

func (p *Pool) commit(ids []int) {
	for _, id := range ids {
		if p.state[id] != NodeFree {
			panic(fmt.Sprintf("resource: double allocation of node %d", id))
		}
		p.state[id] = NodeBusy
	}
	p.free -= len(ids)
	p.Allocs++
}

// Release returns nodes to the free set. Releasing a node that is not
// busy panics: it indicates double-release, the classic RM bug.
func (p *Pool) Release(ids []int) {
	for _, id := range ids {
		p.checkID(id)
		if p.state[id] != NodeBusy {
			panic(fmt.Sprintf("resource: release of non-busy node %d", id))
		}
		p.state[id] = NodeFree
	}
	p.free += len(ids)
}

// MarkDown takes a free node out of service (RAS handling).
func (p *Pool) MarkDown(id int) error {
	p.checkID(id)
	if p.state[id] == NodeBusy {
		return fmt.Errorf("resource: node %d busy, cannot mark down", id)
	}
	if p.state[id] == NodeFree {
		p.free--
	}
	p.state[id] = NodeDown
	return nil
}

// Repair returns a down node to service.
func (p *Pool) Repair(id int) error {
	p.checkID(id)
	if p.state[id] != NodeDown {
		return fmt.Errorf("resource: node %d not down", id)
	}
	p.state[id] = NodeFree
	p.free++
	return nil
}
