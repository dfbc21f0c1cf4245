package apps

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cbp"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestNBodyDistributedMatchesSequential(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		ranks := ranks
		t.Run(fmt.Sprintf("ranks%d", ranks), func(t *testing.T) {
			s := &NBody{N: 16, Steps: 5, DT: 0.01}
			want := s.RunSequential()
			results := make([][]float64, ranks)
			_, err := mpi.Run(ranks, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
				out, err := s.Run(c)
				if err != nil {
					return err
				}
				results[c.Rank()] = out
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			for _, r := range results {
				got = append(got, r...)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("coord[%d] = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestNBodyValidation(t *testing.T) {
	s := &NBody{N: 10, Steps: 1, DT: 0.01}
	_, err := mpi.Run(3, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
		if _, err := s.Run(c); err == nil {
			return fmt.Errorf("non-divisible body count accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := &NBody{N: 1, Steps: 1}
	if _, err := bad.RunSequential(), error(nil); err != nil {
		t.Fatal("unreachable")
	}
}

func TestNBodyEnergyishSanity(t *testing.T) {
	// Bodies must move and stay finite.
	s := &NBody{N: 8, Steps: 20, DT: 0.01}
	before := s.initState(s.N)
	after := s.RunSequential()
	moved := false
	for i := 0; i < s.N; i++ {
		if math.IsNaN(after[2*i]) || math.IsInf(after[2*i], 0) {
			t.Fatalf("body %d diverged: %v", i, after[2*i])
		}
		if math.Abs(after[2*i]-before.px[i]) > 1e-9 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no body moved in 20 steps")
	}
}

func TestNBodyCommVolumeIsAllToAll(t *testing.T) {
	// The complex class moves O(N) bytes per rank per step regardless
	// of rank count — unlike the halo codes whose volume is O(NX).
	s := &NBody{N: 32, Steps: 4, DT: 0.01}
	_, err := mpi.Run(4, mpi.ZeroTransport{}, func(c *mpi.Comm) error {
		if _, err := s.Run(c); err != nil {
			return err
		}
		st := c.Stats()
		if st.SentBytes == 0 {
			return fmt.Errorf("no communication recorded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.CommBytesPerStep() != 16*32 {
		t.Fatal("comm volume accounting wrong")
	}
}

// TestNBodyModelTimeDeterministic guards the Gather fix where it was
// seen: deep.NBody's ModelTime, which deepd caches under a content
// hash, took 85 values in 300 runs while Gather received in host
// arrival order.
func TestNBodyModelTimeDeterministic(t *testing.T) {
	tr := cbp.NewDeepTransport(16, 16)
	place := mpi.WithPlacement(func(ep int) int { return tr.BoosterNode(ep % 16) })
	nb := &NBody{N: 64, Steps: 10, DT: 0.01}
	seen := map[sim.Time]int{}
	for run := 0; run < 200; run++ {
		makespan, err := mpi.NewWorld(tr, place).Run(16, func(c *mpi.Comm) error {
			_, err := nb.Run(c)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		seen[makespan]++
	}
	if len(seen) != 1 {
		t.Fatalf("200 runs of one N-body gave %d distinct makespans: %v", len(seen), seen)
	}
}
