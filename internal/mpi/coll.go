package mpi

import (
	"fmt"
	"sort"
)

// Collective operations. All members of the communicator must call the
// same collectives in the same order, as in MPI. Internally they use a
// reserved tag space above collTagBase; application tags should stay
// below it.
const collTagBase Tag = 1 << 30

// Internal tag offsets per collective kind; correctness relies on
// per-pair FIFO matching, the offsets only aid debugging.
const (
	tagBarrier Tag = collTagBase + iota
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAlltoall
	tagScan
	tagSplit
	tagSpawn
	tagMerge
)

// Op combines src into dst elementwise; len(dst) == len(src).
type Op func(dst, src []float64)

// Predefined reduction operators.
var (
	// OpSum adds elementwise.
	OpSum Op = func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	// OpMax keeps the elementwise maximum.
	OpMax Op = func(dst, src []float64) {
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
	// OpMin keeps the elementwise minimum.
	OpMin Op = func(dst, src []float64) {
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
	// OpProd multiplies elementwise.
	OpProd Op = func(dst, src []float64) {
		for i := range dst {
			dst[i] *= src[i]
		}
	}
)

// Barrier blocks until every member has entered it (dissemination
// algorithm, ceil(log2 n) rounds).
func (c *Comm) Barrier() {
	if c.remote != nil {
		c.interBarrier()
		return
	}
	n := len(c.group)
	for dist := 1; dist < n; dist *= 2 {
		dst := (c.rank + dist) % n
		src := (c.rank - dist + n) % n
		c.sendInternal(dst, tagBarrier, nil)
		c.Recv(src, tagBarrier)
	}
}

// interBarrier synchronises both sides of an inter-communicator: local
// rank 0 exchanges a token with remote rank 0; each side then relies on
// its local barrier being called on the local communicator by the
// application if full synchronisation is required. Here we implement
// the root exchange only, which is what the offload layer needs.
func (c *Comm) interBarrier() {
	if c.rank == 0 {
		c.sendInternal(0, tagBarrier, nil)
		c.Recv(0, tagBarrier)
	}
}

// Bcast distributes root's data to all members and returns it
// (binomial tree). Non-root callers pass nil.
func (c *Comm) Bcast(root int, data any) any {
	n := len(c.group)
	c.checkRoot(root, n)
	// Renumber so the tree is rooted at 0.
	vrank := (c.rank - root + n) % n
	if vrank != 0 {
		src := (((vrank - 1) / 2) + root) % n
		data, _ = c.Recv(src, tagBcast)
	}
	for _, child := range []int{2*vrank + 1, 2*vrank + 2} {
		if child < n {
			c.sendInternal((child+root)%n, tagBcast, data)
		}
	}
	return data
}

// Reduce combines every rank's []float64 contribution with op; the
// result lands on root (binomial tree). Other ranks receive nil. The
// caller's slice is not modified.
func (c *Comm) Reduce(root int, data []float64, op Op) []float64 {
	acc := c.reduce(root, data, op)
	if c.rank != root {
		return nil
	}
	return acc
}

// reduce is Reduce returning every rank's accumulator: the result on
// root, elsewhere the partial the rank sent up the tree.
func (c *Comm) reduce(root int, data []float64, op Op) []float64 {
	n := len(c.group)
	c.checkRoot(root, n)
	acc := append([]float64(nil), data...)
	vrank := (c.rank - root + n) % n
	// Receive from children (deepest first not required; FIFO is fine).
	for _, child := range []int{2*vrank + 1, 2*vrank + 2} {
		if child < n {
			contrib := c.recv((child+root)%n, tagReduce, nil, false).f64
			if len(contrib) != len(acc) {
				panic(fmt.Sprintf("mpi: Reduce length mismatch %d vs %d", len(contrib), len(acc)))
			}
			op(acc, contrib)
			c.ep.recycle(contrib)
		}
	}
	if vrank != 0 {
		parent := (((vrank - 1) / 2) + root) % n
		c.post(parent, tagReduce, nil, acc, true)
	}
	return acc
}

// Allreduce is Reduce to rank 0 followed by a broadcast of the result
// down the same tree Bcast walks, received into the accumulator each
// rank already owns; every rank gets the combined result.
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	acc := c.reduce(0, data, op)
	if c.rank != 0 {
		c.RecvFloat64s((c.rank-1)/2, tagBcast, acc)
	}
	for _, child := range []int{2*c.rank + 1, 2*c.rank + 2} {
		if child < len(c.group) {
			c.post(child, tagBcast, nil, acc, true)
		}
	}
	return acc
}

// Gather collects every rank's payload at root, returned as a slice
// indexed by rank (nil on non-roots).
func (c *Comm) Gather(root int, data any) []any {
	n := len(c.group)
	c.checkRoot(root, n)
	if c.rank != root {
		c.sendInternal(root, tagGather, data)
		return nil
	}
	// Receive in rank order: the root's clock folds each arrival in, and
	// with AnySource the order — so the modelled time — was the host's.
	out := make([]any, n)
	out[root] = data
	for i := range out {
		if i != root {
			out[i], _ = c.Recv(i, tagGather)
		}
	}
	return out
}

// Scatter distributes parts[i] to rank i from root and returns the
// local part. Non-root callers pass nil.
func (c *Comm) Scatter(root int, parts []any) any {
	n := len(c.group)
	c.checkRoot(root, n)
	if c.rank == root {
		if len(parts) != n {
			panic(fmt.Sprintf("mpi: Scatter with %d parts for %d ranks", len(parts), n))
		}
		for i := 0; i < n; i++ {
			if i != root {
				c.sendInternal(i, tagScatter, parts[i])
			}
		}
		return parts[root]
	}
	v, _ := c.Recv(root, tagScatter)
	return v
}

// Allgather collects every rank's payload on every rank.
func (c *Comm) Allgather(data any) []any {
	all := c.Gather(0, data)
	out := c.Bcast(0, wrapAnySlice(all))
	return unwrapAnySlice(out)
}

// Alltoall sends parts[i] to rank i and returns the payloads received
// from every rank (pairwise exchange, n-1 rounds).
func (c *Comm) Alltoall(parts []any) []any {
	n := len(c.group)
	if len(parts) != n {
		panic(fmt.Sprintf("mpi: Alltoall with %d parts for %d ranks", len(parts), n))
	}
	out := make([]any, n)
	out[c.rank] = parts[c.rank]
	for round := 1; round < n; round++ {
		dst := (c.rank + round) % n
		src := (c.rank - round + n) % n
		c.sendInternal(dst, tagAlltoall, parts[dst])
		v, _ := c.Recv(src, tagAlltoall)
		out[src] = v
	}
	return out
}

// Scan computes the inclusive prefix reduction: rank r receives
// op(data_0, ..., data_r). Linear chain.
func (c *Comm) Scan(data []float64, op Op) []float64 {
	acc := append([]float64(nil), data...)
	if c.rank > 0 {
		v, _ := c.Recv(c.rank-1, tagScan)
		prev := AsFloat64s(v)
		// acc = prev op acc, preserving operand order.
		tmp := append([]float64(nil), prev...)
		op(tmp, acc)
		acc = tmp
	}
	if c.rank < len(c.group)-1 {
		c.sendInternal(c.rank+1, tagScan, acc)
	}
	return acc
}

func (c *Comm) checkRoot(root, n int) {
	if root < 0 || root >= n {
		panic(fmt.Sprintf("mpi: root %d out of range [0,%d)", root, n))
	}
	if c.remote != nil {
		panic("mpi: intra-communicator collective called on inter-communicator")
	}
}

// anySlice lets a []any travel as a payload with a computed size.
type anySlice struct{ vals []any }

func wrapAnySlice(vals []any) Sized {
	total := 0
	for _, v := range vals {
		if v != nil {
			total += PayloadBytes(v)
		}
	}
	return Sized{Data: anySlice{vals}, Bytes: total}
}

func unwrapAnySlice(v any) []any {
	s, ok := Unwrap(v).(anySlice)
	if !ok {
		panic(fmt.Sprintf("mpi: expected gathered slice, got %T", v))
	}
	return s.vals
}

// CommSplit partitions the communicator by color; within each new
// communicator ranks are ordered by (key, old rank), as in
// MPI_Comm_split. Every member must call it. The returned communicator
// contains all callers that passed the same color.
func (c *Comm) CommSplit(color, key int) *Comm {
	if c.remote != nil {
		panic("mpi: CommSplit on inter-communicator")
	}
	n := len(c.group)
	triple := []int{color, key, c.rank}
	all := c.Gather(0, triple)
	type member struct{ color, key, rank int }
	var assignment []any // per old rank: the new communicator, less its endpoint
	if c.rank == 0 {
		groups := map[int][]member{}
		for _, v := range all {
			t := v.([]int)
			groups[t[0]] = append(groups[t[0]], member{t[0], t[1], t[2]})
		}
		colors := make([]int, 0, len(groups))
		for col := range groups {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		assignment = make([]any, n)
		for _, col := range colors {
			ms := groups[col]
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].key != ms[j].key {
					return ms[i].key < ms[j].key
				}
				return ms[i].rank < ms[j].rank
			})
			sub := Comm{world: c.world, ctx: c.world.newContext(), group: make([]*endpoint, len(ms))}
			for i, m := range ms {
				sub.group[i] = c.group[m.rank]
			}
			for i, m := range ms {
				sub.rank = i
				// On the wire: context, new rank and the member list.
				assignment[m.rank] = Sized{Data: sub, Bytes: 8 * (2 + len(ms))}
			}
		}
	}
	my := Unwrap(c.Scatter(0, assignment)).(Comm)
	my.ep, my.parent = c.ep, c.parent
	return &my
}

// CommDup returns a communicator with the same group but a fresh
// context, isolating its message traffic (MPI_Comm_dup).
func (c *Comm) CommDup() *Comm {
	if c.remote != nil {
		panic("mpi: CommDup on inter-communicator")
	}
	var ctx int32
	if c.rank == 0 {
		ctx = c.world.newContext()
	}
	v := c.Bcast(0, int64(ctx))
	return &Comm{
		world: c.world, ep: c.ep, ctx: int32(v.(int64)),
		group: c.group, rank: c.rank, parent: c.parent,
	}
}
