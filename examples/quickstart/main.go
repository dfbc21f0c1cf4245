// Quickstart: build a small DEEP machine with the public deep SDK,
// offload one parallel kernel from the Cluster to the spawned Booster
// worker group, and print the verified result together with the
// modelled execution time.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -energy              # add the energy block
//	go run ./examples/quickstart -fidelity flow       # flow-level fabric
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/deep"
)

func main() {
	var (
		energyFlag = flag.Bool("energy", false, "meter energy to solution (Result.Energy block)")
		fidStr     = flag.String("fidelity", "default", "fabric transfer model: default | packet | flow")
	)
	flag.Parse()
	fid, err := deep.ParseFidelity(*fidStr)
	if err != nil {
		log.Fatal(err)
	}

	// One Machine describes the whole modelled system: Xeon cluster
	// nodes on InfiniBand, KNC booster nodes on a 3x3x3 EXTOLL torus,
	// and the worker group spawned for offloaded kernels.
	opts := []deep.Option{
		deep.WithClusterNodes(8),
		deep.WithBoosterTorus(3, 3, 3),
		deep.WithClusterRanks(2),
		deep.WithBoosterWorkers(8),
		deep.WithModelCompute(),
		deep.WithFidelity(fid),
	}
	if *energyFlag {
		opts = append(opts, deep.WithEnergyMetering())
	}
	m, err := deep.NewMachine(opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m)

	// The kernel is shared by construction between the Cluster and
	// Booster sides — the role of DEEP's dual-compiled application
	// binary. Each worker squares its shard of the input.
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
}
