// Cholesky: the paper's OmpSs example (slide 23) end to end through
// the public deep SDK — a tiled Cholesky factorisation whose
// potrf/trsm/gemm/syrk tasks declare data dependences: the dependence
// graph is list-scheduled on modelled workers, its kernels run in a
// seeded random dataflow order and are verified against the unblocked
// reference factorisation, followed by the modelled
// dataflow-vs-fork-join sweep (experiment E06) that shows why the
// paper adopts the dataflow model.
//
//	go run ./examples/cholesky
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/deep"
)

func main() {
	ctx := context.Background()

	// Modelled dataflow execution with verification, on the default
	// machine: a 128x128 SPD matrix in 16x16 tiles over 8 workers.
	m, err := deep.NewMachine(deep.WithSeed(2024))
	if err != nil {
		log.Fatal(err)
	}
	res, err := deep.Run(ctx, m.NewEnv(), deep.Cholesky{N: 128, TileSize: 16, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// The modelled speedup figure on a KNC booster node: dataflow vs
	// fork-join over worker counts — regenerated through the same
	// Runner cmd/deepbench uses.
	rep, err := (&deep.Runner{}).Run(ctx, "E06")
	if err != nil {
		log.Fatal(err)
	}
	if err := (deep.TableSink{}).Write(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}
}
