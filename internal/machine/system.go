package machine

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// System is a whole-machine configuration: counts of each node class
// plus the fabrics that join them. It provides the closed-form
// scalability model used by the positioning experiment (paper slide
// "Positioning DEEP") and the energy experiment.
type System struct {
	Name         string
	ClusterNodes int
	BoosterNodes int
	Cluster      NodeModel
	Booster      NodeModel
	// AlphaLatency and BetaInvBandwidth give the alpha-beta cost of an
	// average inter-node message on the dominant fabric: latency (s)
	// and seconds/byte.
	AlphaLatency     float64
	BetaInvBandwidth float64
}

// Validate checks the configuration.
func (s *System) Validate() error {
	if s.ClusterNodes < 0 || s.BoosterNodes < 0 || s.ClusterNodes+s.BoosterNodes == 0 {
		return fmt.Errorf("machine: system %q has no nodes", s.Name)
	}
	if s.ClusterNodes > 0 {
		if err := s.Cluster.Validate(); err != nil {
			return err
		}
	}
	if s.BoosterNodes > 0 {
		if err := s.Booster.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// PeakGFlops returns the aggregate peak of the system.
func (s *System) PeakGFlops() float64 {
	return float64(s.ClusterNodes)*s.Cluster.PeakGFlops +
		float64(s.BoosterNodes)*s.Booster.PeakGFlops
}

// PeakWatts returns the aggregate peak power draw.
func (s *System) PeakWatts() float64 {
	return float64(s.ClusterNodes)*s.Cluster.PeakWatts +
		float64(s.BoosterNodes)*s.Booster.PeakWatts
}

// AppClass characterises an application for the scalability model, per
// the paper's discussion: few codes are "highly scalable" (sparse
// matrix-vector, regular communication); most are "more complex"
// (complicated communication patterns, less able to exploit
// accelerators).
type AppClass struct {
	Name string
	// SerialFraction is the Amdahl serial fraction of the whole code.
	SerialFraction float64
	// CommFraction is the fraction of parallel work converted into
	// inter-node communication volume per node (bytes per flop scaled);
	// regular codes keep it constant, complex codes grow it with node
	// count via the Irregularity exponent.
	CommBytesPerFlop float64
	// Irregularity >= 0: communication volume per node grows as
	// n^Irregularity. 0 for nearest-neighbour codes, up to ~0.5 for
	// all-to-all-ish complex codes.
	Irregularity float64
	// VectorEfficiency on many-core nodes (how well the kernels use
	// wide vectors); complex codes exploit accelerators poorly.
	VectorEfficiency float64
}

// Reference application classes for the experiments.
var (
	// RegularSparse mirrors "sparse matrix-vector codes, highly regular
	// communication patterns ... well suited for BG/P".
	RegularSparse = AppClass{
		Name:             "regular-sparse",
		SerialFraction:   1e-5,
		CommBytesPerFlop: 1e-4,
		Irregularity:     0,
		VectorEfficiency: 0.85,
	}
	// ComplexApp mirrors "most applications are more complex:
	// complicated communication patterns, less capable to exploit
	// accelerators".
	ComplexApp = AppClass{
		Name:             "complex",
		SerialFraction:   0.02,
		CommBytesPerFlop: 2e-3,
		Irregularity:     0.4,
		VectorEfficiency: 0.35,
	}
	// MixedApp has a scalable kernel embedded in complex control flow —
	// the DEEP target profile: offload the kernel, keep the rest on the
	// cluster.
	MixedApp = AppClass{
		Name:             "mixed",
		SerialFraction:   0.005,
		CommBytesPerFlop: 5e-4,
		Irregularity:     0.2,
		VectorEfficiency: 0.6,
	}
)

// Efficiency returns the parallel efficiency of running app over n
// identical nodes of model m with the system's fabric: an
// Amdahl-plus-communication model.
//
//	T(n) = serial + parallel/n + comm(n)
//	comm(n) = alpha*msgs + beta * volume * n^irr / n
//
// Work is normalised to one second of single-node execution.
func (s *System) Efficiency(app AppClass, m NodeModel, n int) float64 {
	if n < 1 {
		return 0
	}
	if n == 1 {
		return 1
	}
	veff := app.VectorEfficiency
	if m.Kind == ClusterNode || m.Kind == GPUNode {
		// Multi-core nodes tolerate irregular code better: scalar-rich
		// pipelines hide the vector-efficiency penalty.
		veff = 1
	}
	flopsPerNode := m.PeakGFlops * 1e9 * veff // one node-second of work
	serial := app.SerialFraction
	parallel := (1 - app.SerialFraction) / float64(n)
	// Communication: volume per node grows with irregularity.
	volume := app.CommBytesPerFlop * flopsPerNode *
		math.Pow(float64(n), app.Irregularity) / float64(n)
	msgs := 10.0 * math.Pow(float64(n), app.Irregularity) // message count per node
	comm := s.AlphaLatency*msgs + s.BetaInvBandwidth*volume
	t := serial + parallel + comm
	ideal := 1.0 / float64(n)
	return ideal / t
}

// DEEPConfigs returns the three machine configurations compared across
// the experiments: cluster-only, booster-only (cluster of
// accelerators), and the combined DEEP system.
func DEEPConfigs(clusterNodes, boosterNodes int) (cluster, booster, deep System) {
	cluster = System{
		Name:             "cluster",
		ClusterNodes:     clusterNodes,
		Cluster:          Xeon,
		AlphaLatency:     1.3e-6,
		BetaInvBandwidth: 1 / (5.6e9),
	}
	booster = System{
		Name:             "booster",
		BoosterNodes:     boosterNodes,
		Booster:          KNC,
		AlphaLatency:     0.85e-6,
		BetaInvBandwidth: 1 / (4.6e9),
	}
	deep = System{
		Name:             "deep",
		ClusterNodes:     clusterNodes,
		BoosterNodes:     boosterNodes,
		Cluster:          Xeon,
		Booster:          KNC,
		AlphaLatency:     1.0e-6,
		BetaInvBandwidth: 1 / (5.0e9),
	}
	return
}

// BoosterSystem returns a booster-only System of n KNC nodes on the
// EXTOLL fabric, the machine the weak-scaling experiments sweep.
func BoosterSystem(n int) System {
	return System{
		Name:             fmt.Sprintf("booster-%d", n),
		BoosterNodes:     n,
		Booster:          KNC,
		AlphaLatency:     0.85e-6,
		BetaInvBandwidth: 1 / (4.6e9),
	}
}

// BoosterFabric builds the event-driven EXTOLL torus of a booster
// machine at the requested simulation fidelity on a caller's engine.
// The model code builds its torus with BoosterFabricPar at every K;
// this form is kept for the bench/ harness, which calls it, until
// ROADMAP item 11 moves the benchmark.
func BoosterFabric(eng *sim.Engine, x, y, z int, fid fabric.Fidelity, seed uint64) (*fabric.Network, *topology.Torus3D) {
	tor := topology.NewTorus3D(x, y, z)
	net := fabric.MustNetwork(eng, tor, fabric.Extoll, seed)
	net.SetFidelity(fid)
	return net, tor
}

// BoosterFabricPar builds the EXTOLL torus of a booster machine at the
// requested simulation fidelity — the packet model for exact
// small-scale studies, the flow fast path for 100k-node sweeps — on k
// domain engines. K=1 is the sequential fabric: one unpartitioned
// Network on the cluster's only engine. For k > 1 the node space
// splits into at most k z-plane-aligned slabs (dimension-ordered
// routing resolves X and Y inside a slab, so intra-slab traffic stays
// domain-local), each simulated by its own engine under conservative
// window synchronization. k is clamped to [1, z]; the effective domain
// count is Domains() on the result.
func BoosterFabricPar(x, y, z, k int, fid fabric.Fidelity, seed uint64) (*fabric.Domains, *topology.Torus3D) {
	tor := topology.NewTorus3D(x, y, z)
	if k > z {
		k = z
	}
	if k < 1 {
		k = 1
	}
	bounds := make([]int, k+1)
	for d := 0; d <= k; d++ {
		bounds[d] = (d * z / k) * x * y
	}
	doms := fabric.MustDomains(tor, fabric.Extoll, seed, bounds)
	doms.SetFidelity(fid)
	return doms, tor
}
