package deep_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/deep"
)

// squareOffload is quickstart's kernel: each worker squares its shard.
func squareOffload() deep.Offload {
	data := make([]float64, 16)
	want := make([]float64, 16)
	for i := range data {
		data[i] = float64(i)
		want[i] = data[i] * data[i]
	}
	return deep.Offload{
		Kernel:       "square",
		Data:         data,
		FlopsPerRank: 1e6,
		Fn: func(rank, size int, in []float64) ([]float64, error) {
			lo, hi := deep.ShardRange(len(in), rank, size)
			out := make([]float64, hi-lo)
			for i := lo; i < hi; i++ {
				out[i-lo] = in[i] * in[i]
			}
			return out, nil
		},
		Want: want,
	}
}

// reverseOffload scales each shard by a coefficient the kernel fetches
// from a cluster-side service mid-kernel.
func reverseOffload() deep.Offload {
	return deep.Offload{
		Kernel: "weighted-scale",
		Data:   []float64{10, 10, 10, 10},
		Reverse: func(call deep.ServiceCall, rank, size int, in []float64) ([]float64, error) {
			c, err := call("coeff", []float64{float64(rank)})
			if err != nil {
				return nil, err
			}
			lo, hi := deep.ShardRange(len(in), rank, size)
			out := make([]float64, hi-lo)
			for i := lo; i < hi; i++ {
				out[i-lo] = in[i] * c[0]
			}
			return out, nil
		},
		Services: map[string]deep.ClusterService{
			"coeff": func(args []float64) ([]float64, error) { return []float64{1.5 + args[0]}, nil },
		},
		Want: []float64{15, 15, 15, 15},
	}
}

// TestOffloadPinned pins the offload path's rendered output, modelled
// time, reverse-call count and joules. Both cases are deterministic:
// one invoking rank, and at most one worker calling back.
func TestOffloadPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		opts      []deep.Option
		w         deep.Offload
		text      string
		modelTime deep.ModelTime
		reverse   float64 // -1: no reverse_calls metric
		joules    float64 // -1: no joules metric
	}{
		{
			name: "reverse-one-worker",
			opts: []deep.Option{deep.WithBoosterWorkers(1)},
			w:    reverseOffload(),
			text: "offload kernel=weighted-scale workers=1 n=4\n  modelled time = 2.510ms\n  outputs = 4\n" +
				"  reverse_calls = 1\n  note: output: [15 15 15 15]\n  max error = 0.000e+00 (tol 0.0e+00)\n  VERIFIED\n",
			modelTime: 0.002510015628,
			reverse:   1,
			joules:    -1,
		},
		{
			name: "quickstart-energy",
			opts: []deep.Option{
				deep.WithClusterNodes(8),
				deep.WithBoosterTorus(3, 3, 3),
				deep.WithClusterRanks(2),
				deep.WithBoosterWorkers(8),
				deep.WithModelCompute(),
				deep.WithEnergyMetering(),
			},
			w: squareOffload(),
			text: "offload kernel=square workers=8 n=16\n  modelled time = 6.013ms\n  outputs = 16\n" +
				"  joules = 15.99385694284 J\n  note: output: [0 1 4 9 16 25 36 49]\n" +
				"  energy = 15.99 J (0.0005 GFlop/W)\n    cluster = 4.209 J (busy 1.00)\n    booster = 11.78 J (busy 1.00)\n" +
				"  max error = 0.000e+00 (tol 0.0e+00)\n  VERIFIED\n",
			modelTime: 0.006012728174,
			reverse:   -1,
			joules:    15.99385694284,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := deep.NewMachine(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := deep.Run(context.Background(), m.NewEnv(), tc.w)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			reverse, ok := res.Metric("reverse_calls")
			if !ok {
				reverse = -1
			}
			joules, ok := res.Metric("joules")
			if !ok {
				joules = -1
			}
			if buf.String() != tc.text {
				t.Errorf("output moved:\n got %q\nwant %q", buf.String(), tc.text)
			}
			if res.ModelTime != tc.modelTime || reverse != tc.reverse || joules != tc.joules {
				t.Errorf("model time %v, reverse_calls %v, joules %v; pinned %v, %v, %v",
					float64(res.ModelTime), reverse, joules, float64(tc.modelTime), tc.reverse, tc.joules)
			}
		})
	}
}

// TestOffloadHonoursEnv: the offload workload reads the Env fields
// every checked workload reads. Env.Tol overrides the workload's
// tolerance (a negative one fails verification), and booster
// placement, which the offload path cannot honour, is refused.
func TestOffloadHonoursEnv(t *testing.T) {
	m, err := deep.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		env      func(*deep.Env)
		verified bool
		tol      float64
		err      string
	}{
		{name: "default tolerance", env: func(*deep.Env) {}, verified: true},
		{name: "env tolerance", env: func(e *deep.Env) { e.Tol = 0.5 }, verified: true, tol: 0.5},
		{name: "negative env tolerance", env: func(e *deep.Env) { e.Tol = -1 }, tol: -1},
		{name: "booster placement", env: func(e *deep.Env) { e.PlaceOnBooster = true }, err: "PlaceOnBooster"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := m.NewEnv()
			tc.env(env)
			res, err := deep.Run(context.Background(), env, squareOffload())
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error %v, want one naming %s", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Verified != tc.verified || res.Tol != tc.tol {
				t.Errorf("verified=%v tol=%v, want %v and %v", res.Verified, res.Tol, tc.verified, tc.tol)
			}
		})
	}
}
