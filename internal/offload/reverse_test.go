package offload

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// lookupScale multiplies the shard by a factor fetched from the
// cluster-side "config" service.
func lookupScale(env *Env, data []float64) ([]float64, error) {
	factor, err := env.CallCluster("config", []float64{float64(env.Rank)})
	if err != nil {
		return nil, err
	}
	lo, hi := ShardRange(len(data), env.Rank, env.Size)
	out := make([]float64, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = data[i] * factor[0]
	}
	return out, nil
}

// reverseConfig builds a manager whose kernel can call cluster-side
// services.
func reverseConfig(workers int, k Kernel) Config {
	return Config{
		Workers: workers,
		Spawn:   mpi.DefaultSpawnConfig(),
		Kernel:  k,
		Services: map[string]Service{
			// config returns 10 + the asking worker's rank.
			"config": func(args []float64) ([]float64, error) {
				return []float64{10 + args[0]}, nil
			},
			"failing": func(args []float64) ([]float64, error) {
				return nil, errors.New("service exploded")
			},
		},
	}
}

func TestReverseCallFromEveryWorker(t *testing.T) {
	w := mpi.NewWorld(mpi.ZeroTransport{})
	_, err := w.Run(1, func(c *mpi.Comm) error {
		m := NewManager(c, reverseConfig(4, lookupScale))
		defer m.Shutdown()
		data := []float64{1, 1, 1, 1, 1, 1, 1, 1}
		out, err := m.Invoke(Request{Kernel: "lookup-scale", Data: data})
		if err != nil {
			return err
		}
		// Worker r owns 2 elements and scales them by 10+r.
		want := []float64{10, 10, 11, 11, 12, 12, 13, 13}
		for i := range want {
			if out[i] != want[i] {
				return fmt.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
			}
		}
		if m.ReverseCalls != 4 {
			return fmt.Errorf("reverse calls %d, want 4", m.ReverseCalls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReverseUnknownService(t *testing.T) {
	w := mpi.NewWorld(mpi.ZeroTransport{})
	_, err := w.Run(1, func(c *mpi.Comm) error {
		m := NewManager(c, reverseConfig(2, func(env *Env, data []float64) ([]float64, error) {
			if len(data) == 1 {
				return env.CallCluster("nonexistent", nil)
			}
			return lookupScale(env, data)
		}))
		defer m.Shutdown()
		_, err := m.Invoke(Request{Kernel: "bad-service", Data: []float64{1}})
		if err == nil || !strings.Contains(err.Error(), "unknown reverse service") {
			return fmt.Errorf("err = %v", err)
		}
		// Manager still usable.
		out, err := m.Invoke(Request{Kernel: "lookup-scale", Data: []float64{2, 2}})
		if err != nil {
			return err
		}
		if out[0] != 20 || out[1] != 22 {
			return fmt.Errorf("post-failure invoke %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReverseServiceErrorPropagates(t *testing.T) {
	cfg := reverseConfig(2, func(env *Env, _ []float64) ([]float64, error) {
		return env.CallCluster("failing", nil)
	})
	w := mpi.NewWorld(mpi.ZeroTransport{})
	_, err := w.Run(1, func(c *mpi.Comm) error {
		m := NewManager(c, cfg)
		defer m.Shutdown()
		_, err := m.Invoke(Request{Kernel: "call-failing"})
		if err == nil || !strings.Contains(err.Error(), "service exploded") {
			return fmt.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReverseMultipleCallsPerKernel(t *testing.T) {
	cfg := reverseConfig(2, func(env *Env, _ []float64) ([]float64, error) {
		sum := 0.0
		for i := 0; i < 5; i++ {
			v, err := env.CallCluster("config", []float64{float64(i)})
			if err != nil {
				return nil, err
			}
			sum += v[0]
		}
		return []float64{sum}, nil
	})
	w := mpi.NewWorld(mpi.ZeroTransport{})
	_, err := w.Run(1, func(c *mpi.Comm) error {
		m := NewManager(c, cfg)
		defer m.Shutdown()
		out, err := m.Invoke(Request{Kernel: "chatty"})
		if err != nil {
			return err
		}
		// Each worker: sum of 10..14 = 60; two workers concatenated.
		if len(out) != 2 || out[0] != 60 || out[1] != 60 {
			return fmt.Errorf("chatty result %v", out)
		}
		if m.ReverseCalls != 10 {
			return fmt.Errorf("reverse calls %d", m.ReverseCalls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
