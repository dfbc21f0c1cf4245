package mpi

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newTestTorus() topology.Topology { return topology.NewTorus3D(2, 2, 2) }

func extollLike() fabric.Params { return fabric.Extoll }

func runN(t *testing.T, n int, fn func(*Comm) error) {
	t.Helper()
	if _, err := Run(n, ZeroTransport{}, fn); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		runN(t, n, func(c *Comm) error {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
			return nil
		})
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	tr := ConstTransport{Alpha: 10 * sim.Microsecond}
	var clocks [4]sim.Time
	_, err := Run(4, tr, func(c *Comm) error {
		// Rank 2 is the straggler.
		if c.Rank() == 2 {
			c.Advance(sim.Millisecond)
		}
		c.Barrier()
		clocks[c.Rank()] = c.Time()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, clk := range clocks {
		if clk < sim.Millisecond {
			t.Fatalf("rank %d left barrier at %v, before straggler entered", r, clk)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 9} {
		for root := 0; root < n; root++ {
			n, root := n, root
			runN(t, n, func(c *Comm) error {
				var payload any
				if c.Rank() == root {
					payload = []float64{float64(root), 99}
				}
				got := AsFloat64s(c.Bcast(root, payload))
				if got[0] != float64(root) || got[1] != 99 {
					return fmt.Errorf("n=%d root=%d rank=%d got %v", n, root, c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		n := n
		for root := 0; root < n; root += 3 {
			root := root
			runN(t, n, func(c *Comm) error {
				data := []float64{float64(c.Rank()), 1}
				res := c.reduce(root, data, OpSum)
				if c.Rank() == root {
					wantSum := float64(n*(n-1)) / 2
					if res[0] != wantSum || res[1] != float64(n) {
						return fmt.Errorf("reduce got %v", res)
					}
				}
				return nil
			})
		}
	}
}

func TestReduceDoesNotClobberInput(t *testing.T) {
	runN(t, 4, func(c *Comm) error {
		data := []float64{1}
		c.reduce(0, data, OpSum)
		if data[0] != 1 {
			return fmt.Errorf("input clobbered: %v", data)
		}
		return nil
	})
}

func TestAllreduceOps(t *testing.T) {
	const n = 6
	runN(t, n, func(c *Comm) error {
		r := float64(c.Rank())
		sum := c.Allreduce([]float64{r}, OpSum)
		if sum[0] != 15 {
			return fmt.Errorf("sum %v", sum)
		}
		max := c.Allreduce([]float64{r}, OpMax)
		if max[0] != 5 {
			return fmt.Errorf("max %v", max)
		}
		min := c.Allreduce([]float64{r + 1}, OpMin)
		if min[0] != 1 {
			return fmt.Errorf("min %v", min)
		}
		prod := c.Allreduce([]float64{2}, OpProd)
		if prod[0] != 64 {
			return fmt.Errorf("prod %v", prod)
		}
		return nil
	})
}

// TestAllreduceEqualsSequentialProperty: Allreduce(sum) over random
// contributions equals the sequential sum, for any rank count.
func TestAllreduceEqualsSequentialProperty(t *testing.T) {
	check := func(n8 uint8, seed int64) bool {
		n := int(n8%8) + 1
		contrib := make([]float64, n)
		for i := range contrib {
			contrib[i] = float64((seed+int64(i)*2654435761)%1000) / 7
		}
		want := 0.0
		for _, v := range contrib {
			want += v
		}
		ok := true
		_, err := Run(n, ZeroTransport{}, func(c *Comm) error {
			got := c.Allreduce([]float64{contrib[c.Rank()]}, OpSum)
			if math.Abs(got[0]-want) > 1e-9*math.Abs(want)+1e-12 {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatter(t *testing.T) {
	const n = 5
	runN(t, n, func(c *Comm) error {
		all := c.Gather(2, []int{c.Rank() * 10})
		if c.Rank() == 2 {
			for i := 0; i < n; i++ {
				if all[i].([]int)[0] != i*10 {
					return fmt.Errorf("gather[%d] = %v", i, all[i])
				}
			}
			return nil
		}
		if all != nil {
			return fmt.Errorf("non-root gather %v", all)
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	const n = 4
	runN(t, n, func(c *Comm) error {
		all := c.Allgather([]float64{float64(c.Rank())})
		if len(all) != n {
			return fmt.Errorf("allgather size %d", len(all))
		}
		for i := 0; i < n; i++ {
			if AsFloat64s(all[i])[0] != float64(i) {
				return fmt.Errorf("allgather[%d] = %v", i, all[i])
			}
		}
		return nil
	})
}

func TestScan(t *testing.T) {
	const n = 6
	runN(t, n, func(c *Comm) error {
		got := c.Scan([]float64{float64(c.Rank() + 1)}, OpSum)
		want := float64((c.Rank() + 1) * (c.Rank() + 2) / 2)
		if got[0] != want {
			return fmt.Errorf("rank %d scan %v, want %v", c.Rank(), got, want)
		}
		return nil
	})
}

func TestBcastClockTree(t *testing.T) {
	// With a pure-latency transport, a binomial bcast over 8 ranks
	// should finish in about log2(8)=3 alpha, far below 7 alpha linear.
	alpha := 100 * sim.Microsecond
	tr := ConstTransport{Alpha: alpha}
	makespan, err := Run(8, tr, func(c *Comm) error {
		var data any
		if c.Rank() == 0 {
			data = []int{1}
		}
		c.Bcast(0, data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if makespan > 4*alpha {
		t.Fatalf("bcast makespan %v, want <= ~3 alpha (%v)", makespan, 3*alpha)
	}
}

func BenchmarkAllreduce8(b *testing.B) {
	data := make([]float64, 1024)
	_, err := Run(8, ZeroTransport{}, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			c.Allreduce(data, OpSum)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestGatherModelTimeIsNotTheHosts: the root of a Gather folds every
// arrival into its clock; receiving in rank order makes the result a
// function of the model, where AnySource made it the order in which the
// host happened to run the senders (and Allgather inherited it).
func TestGatherModelTimeIsNotTheHosts(t *testing.T) {
	tr := NewFabricTransport(topology.NewTorus3D(4, 2, 2), fabric.Extoll)
	seen := map[sim.Time]int{}
	for run := 0; run < 200; run++ {
		makespan, err := NewWorld(tr).Run(16, func(c *Comm) error {
			mine := make([]float64, 12)
			for step := 0; step < 10; step++ {
				c.Advance(sim.Time(c.Rank()%3) * 100 * sim.Nanosecond)
				if all := c.Allgather(mine); len(all) != 16 {
					return fmt.Errorf("allgather of %d parts", len(all))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		seen[makespan]++
	}
	if len(seen) != 1 {
		t.Fatalf("200 runs of one Allgather loop gave %d distinct makespans: %v", len(seen), seen)
	}
}
