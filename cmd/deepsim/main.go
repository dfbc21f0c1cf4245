// Command deepsim runs one fabric simulation scenario and prints the
// resulting latency/throughput/utilisation figures. It exposes the
// event-driven plane directly: pick a topology, a traffic pattern and
// an error rate, and observe the fabric behave.
//
//	deepsim -topo torus -x 4 -y 4 -z 4 -pattern neighbor -bytes 65536
//	deepsim -topo fattree -pattern alltoall -bytes 4096 -error 1e-3
//	deepsim -topo torus -x 8 -y 8 -z 8 -pattern random -domains 4
//	deepsim -topo fattree -nodes 64 -pattern random -domains 4 -maxwindow 8
//
// With -domains k > 1 the fabric is partitioned into k domain engines
// under conservative window synchronization (the parallel kernel):
// z-plane slabs on the torus, leaf-aligned ranges on the fat tree
// (via its link-ownership map). k > 1 requires -error 0; results are
// deterministic per fixed k. At k = 1 the one domain is the sequential
// fabric, for any topology and error rate. -maxwindow lets quiet windows widen
// geometrically up to that multiple of the fabric lookahead without
// changing any delivery time.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/fabric"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func main() {
	var (
		topoName = flag.String("topo", "torus", "topology: torus | fattree | crossbar")
		x        = flag.Int("x", 4, "torus X dimension")
		y        = flag.Int("y", 4, "torus Y dimension")
		z        = flag.Int("z", 4, "torus Z dimension")
		nodes    = flag.Int("nodes", 16, "node count for fattree/crossbar")
		pattern  = flag.String("pattern", "neighbor", "pattern: neighbor | alltoall | random")
		bytesF   = flag.Int("bytes", 65536, "message size in bytes")
		count    = flag.Int("count", 0, "message count for random pattern (default 4/node)")
		errRate  = flag.Float64("error", 0, "per-packet link error probability")
		seed     = flag.Uint64("seed", 1, "random seed")
		fidelity = flag.String("fidelity", "packet", "transfer model: packet | flow | auto")
		domains  = flag.Int("domains", 1, "partition the fabric into this many domain engines (torus or fattree, -error 0)")
		maxWin   = flag.Int("maxwindow", 0, "adaptive window cap on the partitioned kernel: quiet windows widen up to N x lookahead (0 or 1: fixed windows)")
	)
	flag.Parse()

	var topo topology.Topology
	var tor *topology.Torus3D
	switch *topoName {
	case "torus":
		tor = topology.NewTorus3D(*x, *y, *z)
		topo = tor
	case "fattree":
		leaves := (*nodes + 15) / 16
		topo = topology.NewFatTree(16, leaves, 8)
	case "crossbar":
		topo = topology.NewCrossbar(*nodes)
	default:
		fmt.Fprintf(os.Stderr, "deepsim: unknown topology %q\n", *topoName)
		os.Exit(1)
	}

	params := fabric.Extoll
	if *topoName == "fattree" {
		params = fabric.InfiniBandFDR
	}
	params.PacketErrorRate = *errRate
	params.MaxRetries = 64

	fid, err := fabric.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
		os.Exit(1)
	}

	var msgs []apps.Message
	switch *pattern {
	case "neighbor":
		if tor == nil {
			fmt.Fprintln(os.Stderr, "deepsim: neighbor pattern needs -topo torus")
			os.Exit(1)
		}
		msgs = apps.NearestNeighbor3D(tor, *bytesF)
	case "alltoall":
		msgs = apps.AllToAll(topo.Nodes(), *bytesF)
	case "random":
		c := *count
		if c == 0 {
			c = topo.Nodes() * 4
		}
		msgs = apps.UniformRandom(topo.Nodes(), c, *bytesF, rng.New(*seed))
	default:
		fmt.Fprintf(os.Stderr, "deepsim: unknown pattern %q\n", *pattern)
		os.Exit(1)
	}

	// One domain engine per z-plane slab of the torus, or per
	// leaf-aligned node range of the fat tree (whose link-ownership map
	// anchors switch links to the leaf's first node); one unpartitioned
	// fabric at K=1, for any topology. Each message records its own
	// delivery: a cross-domain completion runs on the destination's
	// engine goroutine, so a shared per-domain counter would race.
	k := max(*domains, 1)
	bounds := []int{0, topo.Nodes()}
	if k > 1 {
		switch {
		case tor != nil:
			k = min(k, *z)
			bounds = make([]int, k+1)
			for d := 0; d <= k; d++ {
				bounds[d] = (d * *z / k) * *x * *y
			}
		case *topoName == "fattree":
			ft := topo.(*topology.FatTree)
			k = min(k, ft.Leaves)
			bounds = make([]int, k+1)
			for d := 0; d <= k; d++ {
				bounds[d] = (d * ft.Leaves / k) * ft.NodesPerLeaf
			}
		default:
			fmt.Fprintln(os.Stderr, "deepsim: -domains needs -topo torus or fattree")
			os.Exit(1)
		}
	}
	doms, err := fabric.NewDomains(topo, params, *seed, bounds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
		os.Exit(1)
	}
	doms.SetFidelity(fid)
	if *maxWin > 1 {
		doms.SetMaxWindow(*maxWin)
	}
	ok := make([]bool, len(msgs))
	for i, m := range msgs {
		doms.ShardOf(m.Src).Send(m.Src, m.Dst, m.Bytes, func(_ sim.Time, err error) {
			ok[i] = err == nil
		})
	}
	finish := doms.Run()
	delivered := 0
	for _, d := range ok {
		if d {
			delivered++
		}
	}
	fst := doms.Stats()
	cluster := doms.KernelStats()
	st := cluster.Agg

	tab := stats.NewTable(fmt.Sprintf("deepsim %s / %s", topo.Name(), *pattern),
		"metric", "value")
	tab.AddRow("messages", len(msgs))
	tab.AddRow("delivered", delivered)
	tab.AddRow("total_bytes", apps.TotalBytes(msgs))
	tab.AddRow("finish", finish.String())
	if finish > 0 {
		tab.AddRow("aggregate_GB/s", float64(apps.TotalBytes(msgs))/finish.Seconds()/fabric.GB)
	}
	tab.AddRow("retransmits", int(fst.Retransmits))
	tab.AddRow("drops", int(fst.Drops))
	tab.AddRow("max_link_util", doms.MaxLinkUtilisation())
	// Scheduler diagnostics: how hard the event kernel worked, and how
	// much the flow fast path saved (see README "The event kernel").
	tab.AddRow("flow_msgs", int(fst.FlowMessages))
	tab.AddRow("events_executed", int(st.Executed))
	tab.AddRow("max_queue_depth", st.MaxQueueDepth)
	if st.Allocs+st.Reused > 0 {
		tab.AddRow("event_pool_hit", float64(st.Reused)/float64(st.Allocs+st.Reused))
	}
	if cluster.Domains > 1 {
		// Partitioned-kernel diagnostics: how the conservative windows
		// behaved and how much traffic crossed slab boundaries.
		tab.AddRow("domains", cluster.Domains)
		tab.AddRow("kernel_windows", int(cluster.Windows))
		tab.AddRow("cross_messages", int(fst.CrossMessages))
		if cluster.MaxWindow > 1 {
			tab.AddRow("max_window", cluster.MaxWindow)
			tab.AddRow("wide_windows", int(cluster.WideWindows))
		}
	}
	if err := tab.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
		os.Exit(1)
	}
}
