// Dynamicbooster: the resource-management story of the paper (slides
// 8, 21) — a job mix with skewed accelerator demand scheduled three
// times through the deep.ScheduledJobs workload: once with the static
// host-owns-its-accelerators wiring of a conventional accelerated
// cluster, once with the dynamic pool assignment the Cluster-Booster
// architecture enables, and once adding topology-aware contiguous
// sub-torus allocation.
//
// With -energy the machine meters energy to solution and a fourth,
// power-gated configuration joins the sweep: free boosters sleep and
// wake with a latency penalty — the energy/latency trade the
// Cluster-Booster pool enables.
//
//	go run ./examples/dynamicbooster
//	go run ./examples/dynamicbooster -energy
//	go run ./examples/dynamicbooster -energy -fidelity packet
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/deep"
	"repro/internal/rng"
)

// workload builds a reproducible Zipf-skewed job mix: some jobs want
// many boosters while their owner only holds four.
func workload() []deep.Job {
	r := rng.New(99)
	zipf := rng.NewZipf(r, 8, 1.1)
	jobs := make([]deep.Job, 32)
	for i := range jobs {
		jobs[i] = deep.Job{
			ID:       i,
			Arrival:  float64(i) * 0.05,
			Boosters: 1 << uint(zipf.Next()%5), // 1..16
			Duration: float64(r.Intn(400)+100) / 1000,
			Owner:    r.Intn(8),
		}
	}
	return jobs
}

func main() {
	var (
		energyFlag = flag.Bool("energy", false, "meter energy and add a power-gated configuration")
		fidStr     = flag.String("fidelity", "default", "fabric transfer model: default | packet | flow")
	)
	flag.Parse()
	fid, err := deep.ParseFidelity(*fidStr)
	if err != nil {
		log.Fatal(err)
	}

	// 32 boosters on a 4x4x2 EXTOLL torus, 8 owners x 4 boosters.
	machineOpts := func(extra ...deep.Option) []deep.Option {
		opts := []deep.Option{deep.WithBoosterTorus(4, 4, 2), deep.WithFidelity(fid)}
		if *energyFlag {
			opts = append(opts, deep.WithEnergyMetering())
		}
		return append(opts, extra...)
	}
	m, err := deep.NewMachine(machineOpts()...)
	if err != nil {
		log.Fatal(err)
	}
	// The gated machine sleeps free boosters; they wake with the KNC
	// model's 10 ms latency when a job lands on them.
	gated, err := deep.NewMachine(machineOpts(deep.WithPowerGating(0))...)
	if err != nil {
		log.Fatal(err)
	}
	jobs := workload()

	ctx := context.Background()
	fmt.Println("booster assignment on a 4x4x2 EXTOLL torus (32 jobs):")
	configs := []struct {
		name string
		m    *deep.Machine
		w    deep.ScheduledJobs
	}{
		{"static (host-owned)", m, deep.ScheduledJobs{Jobs: jobs, BoostersPerOwner: 4}},
		{"dynamic first-fit", m, deep.ScheduledJobs{Jobs: jobs, BoostersPerOwner: 4, Dynamic: true}},
		{"dynamic sub-torus", m, deep.ScheduledJobs{Jobs: jobs, BoostersPerOwner: 4, Dynamic: true, Contiguous: true}},
	}
	if *energyFlag {
		configs = append(configs, struct {
			name string
			m    *deep.Machine
			w    deep.ScheduledJobs
		}{"dynamic power-gated", gated, deep.ScheduledJobs{Jobs: jobs, BoostersPerOwner: 4, Dynamic: true}})
	}
	for _, cfg := range configs {
		res, err := deep.Run(ctx, cfg.m.NewEnv(), cfg.w)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Verified {
			log.Fatalf("%s lost jobs: %v", cfg.name, res.Notes)
		}
		makespan, _ := res.Metric("makespan_s")
		util, _ := res.Metric("utilisation")
		wait, _ := res.Metric("mean_wait_ms")
		fmt.Printf("  %-22s makespan %.3f s   utilisation %.3f   mean wait %.1f ms",
			cfg.name, makespan, util, wait)
		if e := res.Energy; e != nil {
			fmt.Printf("   %.1f kJ (%.2f GFlop/W)", e.Joules/1e3, e.GFlopsPerWatt)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("static binds each job to its owner's 4 boosters; dynamic draws from the")
	fmt.Println("pool; sub-torus allocation additionally keeps each job's nodes contiguous.")
	fmt.Println("the dynamic rows reproduce the paper's argument for network-attached,")
	fmt.Println("dynamically assignable boosters (slide 8)")
	if *energyFlag {
		fmt.Println("power gating sleeps free boosters (20 W instead of 90 W) and pays the")
		fmt.Println("wake latency on allocation: joules drop, makespan grows slightly")
	}
}
