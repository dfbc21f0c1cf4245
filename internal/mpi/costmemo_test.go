package mpi

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

// countingTransport charges a cost that differs for every (src, dst,
// bytes) and counts how often each one was asked for.
type countingTransport struct {
	mu    sync.Mutex
	calls map[[3]int]int
}

func (t *countingTransport) Cost(src, dst, bytes int) sim.Time {
	t.mu.Lock()
	t.calls[[3]int{src, dst, bytes}]++
	t.mu.Unlock()
	return sim.Time(1000 + 7919*src + 104729*dst + 13*bytes)
}

func (t *countingTransport) SendOverhead() sim.Time { return 3 }
func (t *countingTransport) RecvOverhead() sim.Time { return 5 }

// TestCostMemoMatchesUnmemoised: on a ring whose peers all land in one
// memo slot (nodes 8 apart), with a payload size that changes every
// iteration, every rank ends on the clock it reaches when each send
// asks the transport afresh. Each peer gets three messages in a row:
// the first evicts the previous peer, the second hits, the third is one
// float longer and misses.
func TestCostMemoMatchesUnmemoised(t *testing.T) {
	const n, iters = 5, 40
	run := func(bypass bool) ([]sim.Time, int) {
		tr := &countingTransport{calls: map[[3]int]int{}}
		clocks := make([]sim.Time, n)
		_, err := NewWorld(tr, WithPlacement(func(ep int) int { return 8 * ep })).Run(n, func(c *Comm) error {
			r := c.Rank()
			right, left := (r+1)%n, (r+n-1)%n
			into := make([]float64, 64)
			for it := 0; it < iters; it++ {
				c.Advance(sim.Time(1 + (r*7+it)%5))
				for _, dst := range []int{right, left, r} {
					msg := make([]float64, 1+(it*5+dst)%3)
					for _, m := range [][]float64{msg, msg, append(msg, 1)} {
						if bypass {
							clear(c.ep.costs[:])
						}
						c.SendFloat64s(dst, Tag(dst), m)
					}
				}
				for _, src := range []int{left, right, r} {
					for range 3 {
						c.RecvFloat64s(src, Tag(r), into)
					}
				}
			}
			clocks[r] = c.Time()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		for _, k := range tr.calls {
			calls += k
		}
		return clocks, calls
	}
	memo, memoCalls := run(false)
	bare, bareCalls := run(true)
	if fmt.Sprint(memo) != fmt.Sprint(bare) {
		t.Errorf("clocks with the memo %v, without %v", memo, bare)
	}
	if memoCalls != 6*n*iters || bareCalls != 9*n*iters {
		t.Errorf("%d Cost calls with the memo, %d without; want %d and %d", memoCalls, bareCalls, 6*n*iters, 9*n*iters)
	}
}

// TestCostMemoOncePerPeer: a steady halo exchange asks the transport
// once per distinct (source node, destination node, bytes).
func TestCostMemoOncePerPeer(t *testing.T) {
	const n = 6
	tr := &countingTransport{calls: map[[3]int]int{}}
	_, err := NewWorld(tr).Run(n, func(c *Comm) error {
		r := c.Rank()
		row := make([]float64, 32)
		for it := 0; it < 100; it++ {
			if r > 0 {
				c.SendFloat64s(r-1, 1, row)
			}
			if r < n-1 {
				c.SendFloat64s(r+1, 2, row)
				c.RecvFloat64s(r+1, 1, row)
			}
			if r > 0 {
				c.RecvFloat64s(r-1, 2, row)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.calls) != 2*(n-1) {
		t.Errorf("%d distinct Cost arguments, want %d", len(tr.calls), 2*(n-1))
	}
	for k, calls := range tr.calls {
		if calls != 1 || k[2] != 8*32 {
			t.Errorf("Cost%v called %d times, want once for %d bytes", k, calls, 8*32)
		}
	}
}
