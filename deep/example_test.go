package deep_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/deep"
)

// ExampleNewMachine builds a DEEP machine description with functional
// options and prints its summary.
func ExampleNewMachine() {
	m, err := deep.NewMachine(
		deep.WithClusterNodes(16),
		deep.WithBoosterTorus(4, 4, 2),
		deep.WithClusterRanks(4),
		deep.WithBoosterWorkers(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m)
	// Output:
	// deep machine: 16 cluster nodes (fat tree) + 32 booster nodes (torus), 4 ranks, 8 workers
}

// ExampleRunner regenerates one figure of the paper reproduction and
// renders it as an aligned table — exactly what cmd/deepbench does
// for the full registry.
func ExampleRunner() {
	runner := &deep.Runner{Parallel: 2}
	rep, err := runner.Run(context.Background(), "E12")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d rows\n", rep.Results[0].ID, len(rep.Results[0].Table.Rows))
	fmt.Println(rep.Results[0].Table.Headers[0], rep.Results[0].Table.Rows[0][0])
	// Output:
	// E12: 7 rows
	// year 2008
}

// ExampleSpMV runs the sparse matrix-vector workload on a small
// machine and verifies the distributed result against the sequential
// reference.
func ExampleSpMV() {
	m, err := deep.NewMachine(deep.WithClusterNodes(4), deep.WithBoosterNodes(8))
	if err != nil {
		log.Fatal(err)
	}
	env := m.NewEnv()
	env.Ranks = 4

	res, err := deep.Run(context.Background(), env, deep.SpMV{NX: 16, NY: 16, Iters: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %s verified=%v\n", res.Workload, res.Summary, res.Verified)
	// Output:
	// spmv 16x16 iters=4 ranks=4 verified=true
}

// ExampleJSONSink emits a report as JSON, the format scripted
// consumers of deepbench -json parse.
func ExampleJSONSink() {
	rep, err := (&deep.Runner{}).Run(context.Background(), "E12")
	if err != nil {
		log.Fatal(err)
	}
	rep.Results[0].Table.Rows = rep.Results[0].Table.Rows[:1] // keep the example short
	rep.Results[0].Table.Notes = nil
	sink := deep.JSONSink{}
	if err := sink.Write(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}
	// Output:
	// [{"id":"E12","title":"Technology scaling trajectories","paper_ref":"slides 2-4","table":{"title":"E12 Technology scaling: multi-core vs many-core trajectories","headers":["year","scalar_GF","multicore_node_GF","manycore_node_GF","system_x_per_decade"],"rows":[["2008","4.000","80.000","80.000","1.000"]]}}]
}

// ExampleOffload ships one kernel from the Cluster to the spawned
// Booster worker group — the machine and kernel of
// examples/quickstart — and prints the verified result with its
// modelled makespan.
func ExampleOffload() {
	m, err := deep.NewMachine(
		deep.WithClusterNodes(8),
		deep.WithBoosterTorus(3, 3, 3),
		deep.WithClusterRanks(2),
		deep.WithBoosterWorkers(8),
		deep.WithModelCompute(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m)
	data := make([]float64, 16)
	want := make([]float64, 16)
	for i := range data {
		data[i] = float64(i)
		want[i] = data[i] * data[i]
	}
	square := deep.Offload{
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
	res, err := deep.Run(context.Background(), m.NewEnv(), square)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modelled makespan on the DEEP machine: %v\n", res.ModelTime)
	// Output:
	// deep machine: 8 cluster nodes (fat tree) + 27 booster nodes (torus), 2 ranks, 8 workers
	// offload kernel=square workers=8 n=16
	//   modelled time = 6.013ms
	//   outputs = 16
	//   note: output: [0 1 4 9 16 25 36 49]
	//   max error = 0.000e+00 (tol 0.0e+00)
	//   VERIFIED
	// modelled makespan on the DEEP machine: 6.013ms
}
