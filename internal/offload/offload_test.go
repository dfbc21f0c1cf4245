package offload

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cbp"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// scale multiplies its shard of data[1:] by data[0]; a negative factor
// fails the kernel.
func scale(env *Env, data []float64) ([]float64, error) {
	f, in := data[0], data[1:]
	if f < 0 {
		return nil, errors.New("synthetic kernel failure")
	}
	lo, hi := ShardRange(len(in), env.Rank, env.Size)
	out := make([]float64, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = in[i] * f
	}
	return out, nil
}

// sum reduces the shard to one partial sum per rank.
func sum(env *Env, data []float64) ([]float64, error) {
	lo, hi := ShardRange(len(data), env.Rank, env.Size)
	s := 0.0
	for i := lo; i < hi; i++ {
		s += data[i]
	}
	return []float64{s}, nil
}

func withManager(t *testing.T, workers int, k Kernel, fn func(m *Manager) error) {
	t.Helper()
	w := mpi.NewWorld(mpi.ZeroTransport{})
	_, err := w.Run(1, func(c *mpi.Comm) error {
		m := NewManager(c, Config{Workers: workers, Spawn: mpi.DefaultSpawnConfig(), Kernel: k})
		defer m.Shutdown()
		return fn(m)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvokeScale(t *testing.T) {
	withManager(t, 4, scale, func(m *Manager) error {
		data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		out, err := m.Invoke(Request{Kernel: "scale", Data: append([]float64{3}, data...)})
		if err != nil {
			return err
		}
		if len(out) != len(data) {
			return fmt.Errorf("len %d", len(out))
		}
		for i, v := range out {
			if v != data[i]*3 {
				return fmt.Errorf("out[%d] = %v", i, v)
			}
		}
		return nil
	})
}

func TestInvokeSumReduction(t *testing.T) {
	withManager(t, 3, sum, func(m *Manager) error {
		data := make([]float64, 100)
		want := 0.0
		for i := range data {
			data[i] = float64(i)
			want += data[i]
		}
		out, err := m.Invoke(Request{Kernel: "sum", Data: data})
		if err != nil {
			return err
		}
		if len(out) != 3 {
			return fmt.Errorf("partials %d", len(out))
		}
		got := out[0] + out[1] + out[2]
		if got != want {
			return fmt.Errorf("sum %v, want %v", got, want)
		}
		return nil
	})
}

func TestMultipleSequentialInvocations(t *testing.T) {
	withManager(t, 2, scale, func(m *Manager) error {
		for i := 1; i <= 5; i++ {
			out, err := m.Invoke(Request{Kernel: "scale", Data: []float64{float64(i), 10}})
			if err != nil {
				return err
			}
			if out[0] != float64(10*i) {
				return fmt.Errorf("iter %d got %v", i, out)
			}
		}
		return nil
	})
}

func TestKernelFailurePropagates(t *testing.T) {
	withManager(t, 2, scale, func(m *Manager) error {
		_, err := m.Invoke(Request{Kernel: "scale", Data: []float64{-1, 1}})
		if err == nil || !strings.Contains(err.Error(), "synthetic kernel failure") {
			return fmt.Errorf("err = %v", err)
		}
		// The manager must still work afterwards.
		out, err := m.Invoke(Request{Kernel: "scale", Data: []float64{2, 21}})
		if err != nil {
			return err
		}
		if out[0] != 42 {
			return fmt.Errorf("post-failure invoke got %v", out)
		}
		return nil
	})
}

func TestModeledKernelAdvancesClock(t *testing.T) {
	tr := cbp.NewDeepTransport(4, 8)
	w := mpi.NewWorld(tr)
	knc := machine.KNC
	makespan, err := w.Run(1, func(c *mpi.Comm) error {
		cfg := Config{Workers: 4, Spawn: mpi.DefaultSpawnConfig(), Model: &knc, Kernel: sum}
		cfg.Spawn.Place = tr.BoosterNode
		m := NewManager(c, cfg)
		defer m.Shutdown()
		before := c.Time()
		_, err := m.Invoke(Request{
			Kernel: "sum", Data: make([]float64, 1000),
			FlopsPerRank: 1e9, // ~1ms at KNC peak
		})
		if err != nil {
			return err
		}
		if c.Time()-before < sim.Time(500)*sim.Microsecond {
			return fmt.Errorf("modelled kernel time missing: %v", c.Time()-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if makespan == 0 {
		t.Fatal("zero makespan")
	}
}

func TestShardRangeCoversExactly(t *testing.T) {
	check := func(n16 uint16, size8 uint8) bool {
		n := int(n16 % 1000)
		size := int(size8%16) + 1
		covered := 0
		prevHi := 0
		for r := 0; r < size; r++ {
			lo, hi := ShardRange(n, r, size)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
