package mpi

import (
	"fmt"
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
	tagScan
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

// reduce combines every rank's []float64 contribution with op up a
// binomial tree rooted at root and returns every rank's accumulator:
// the result on root, elsewhere the partial the rank sent up the tree.
// The caller's slice is not modified.
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

// Allreduce is reduce to rank 0 followed by a broadcast of the result
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

// Allgather collects every rank's payload on every rank.
func (c *Comm) Allgather(data any) []any {
	all := c.Gather(0, data)
	out := c.Bcast(0, wrapAnySlice(all))
	return unwrapAnySlice(out)
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
