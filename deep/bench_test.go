package deep_test

import (
	"context"
	"io"
	"testing"

	"repro/deep"
)

// benchExperiment runs one registered experiment per iteration through
// the public Runner and renders its table to io.Discard, so `go test
// -bench` both times the full figure regeneration and exercises the
// rendering path. These are for measuring while you work; performance
// claims go through `go run ./bench` (see bench/README.md).
func benchExperiment(b *testing.B, id string, fid deep.Fidelity) {
	b.Helper()
	benchRunner(b, &deep.Runner{Fidelity: fid}, id)
}

// benchRunner is benchExperiment on a runner of the caller's choosing.
func benchRunner(b *testing.B, runner *deep.Runner, id string) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := runner.Run(ctx, id)
		if err != nil {
			b.Fatalf("%s failed: %v", id, err)
		}
		tab := rep.Results[0].Table
		if tab == nil || len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE01OffloadPath regenerates the accelerated-cluster vs
// cluster-of-accelerators comparison (paper slides 6-8).
func BenchmarkE01OffloadPath(b *testing.B) { benchExperiment(b, "E01", deep.DefaultFidelity) }

// BenchmarkE02Assignment regenerates the static vs dynamic booster
// assignment comparison (slide 8).
func BenchmarkE02Assignment(b *testing.B) { benchExperiment(b, "E02", deep.DefaultFidelity) }

// BenchmarkE03Pressure regenerates the communication-pressure-relief
// figure (slide 10).
func BenchmarkE03Pressure(b *testing.B) { benchExperiment(b, "E03", deep.DefaultFidelity) }

// BenchmarkE04Scalability regenerates the application-scalability /
// DEEP-positioning figure (slides 9, 18).
func BenchmarkE04Scalability(b *testing.B) { benchExperiment(b, "E04", deep.DefaultFidelity) }

// BenchmarkE05Spawn regenerates the MPI_Comm_spawn startup-latency
// series (slides 21, 26-27).
func BenchmarkE05Spawn(b *testing.B) { benchExperiment(b, "E05", deep.DefaultFidelity) }

// BenchmarkE06Cholesky regenerates the OmpSs tiled-Cholesky dataflow
// vs fork-join figure (slide 23).
func BenchmarkE06Cholesky(b *testing.B) { benchExperiment(b, "E06", deep.DefaultFidelity) }

// BenchmarkE07GlobalMPI regenerates the intra-fabric vs cross-gateway
// communication figure (slides 24-29).
func BenchmarkE07GlobalMPI(b *testing.B) { benchExperiment(b, "E07", deep.DefaultFidelity) }

// BenchmarkE08VeloRMA regenerates the VELO vs RMA engine crossover
// (slide 16).
func BenchmarkE08VeloRMA(b *testing.B) { benchExperiment(b, "E08", deep.DefaultFidelity) }

// BenchmarkE09Torus regenerates the 3D-torus latency/throughput series
// (slide 16).
func BenchmarkE09Torus(b *testing.B) { benchExperiment(b, "E09", deep.DefaultFidelity) }

// BenchmarkE10RAS regenerates the CRC/link-level-retransmission figure
// (slide 16).
func BenchmarkE10RAS(b *testing.B) { benchExperiment(b, "E10", deep.DefaultFidelity) }

// BenchmarkE11Energy regenerates the energy-efficiency positioning
// (slides 3, 15).
func BenchmarkE11Energy(b *testing.B) { benchExperiment(b, "E11", deep.DefaultFidelity) }

// BenchmarkE12Scaling regenerates the technology-scaling trajectories
// (slides 2-4).
func BenchmarkE12Scaling(b *testing.B) { benchExperiment(b, "E12", deep.DefaultFidelity) }

// BenchmarkE13Resilience regenerates the efficiency-vs-MTBF figure.
func BenchmarkE13Resilience(b *testing.B) { benchExperiment(b, "E13", deep.DefaultFidelity) }

// BenchmarkE14Checkpoint regenerates the checkpoint-interval sweep.
func BenchmarkE14Checkpoint(b *testing.B) { benchExperiment(b, "E14", deep.DefaultFidelity) }

// BenchmarkE15WeakScaling regenerates the 1k-100k booster weak-scaling
// sweep at its default flow fidelity — the 100k-node headline run.
func BenchmarkE15WeakScaling(b *testing.B) { benchExperiment(b, "E15", deep.DefaultFidelity) }

// BenchmarkE15WeakScalingK2 is the same sweep on the 2-domain parallel
// kernel, the run `go run ./bench --workload weakscale_k2` times: profile
// it with `go test -bench E15WeakScalingK2 -cpuprofile cpu.prof ./deep`.
func BenchmarkE15WeakScalingK2(b *testing.B) { benchRunner(b, &deep.Runner{Domains: 2}, "E15") }

// BenchmarkE09Fidelity contrasts the exact packet model with the
// flow-level fast path on the loaded-torus experiment: same figure
// regeneration, different transfer model.
func BenchmarkE09Fidelity(b *testing.B) {
	b.Run("packet", func(b *testing.B) { benchExperiment(b, "E09", deep.Packet) })
	b.Run("flow", func(b *testing.B) { benchExperiment(b, "E09", deep.Flow) })
}

// BenchmarkE15Fidelity is the headline speedup: the 100k-booster sweep
// under the exact packet model vs the flow fast path. The flow run is
// what CI exercises; the packet run exists to quantify the gap.
func BenchmarkE15Fidelity(b *testing.B) {
	b.Run("flow", func(b *testing.B) { benchExperiment(b, "E15", deep.Flow) })
	b.Run("packet", func(b *testing.B) { benchExperiment(b, "E15", deep.Packet) })
}
