package deep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/deep"
	"repro/internal/apps"
	"repro/internal/linalg"
	"repro/internal/machine"
)

func TestNewMachineValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []deep.Option
	}{
		{"no cluster nodes", []deep.Option{deep.WithClusterNodes(0)}},
		{"no booster nodes", []deep.Option{deep.WithBoosterNodes(0)}},
		{"no ranks", []deep.Option{deep.WithClusterRanks(0)}},
		{"workers exceed boosters", []deep.Option{deep.WithBoosterNodes(4), deep.WithBoosterWorkers(8)}},
		{"negative fault plan", []deep.Option{deep.WithFaultInjector(deep.FaultPlan{NodeMTBF: -1})}},
	}
	for _, c := range cases {
		if _, err := deep.NewMachine(c.opts...); err == nil {
			t.Errorf("%s: NewMachine accepted an invalid configuration", c.name)
		}
	}
	m, err := deep.NewMachine()
	if err != nil {
		t.Fatalf("default machine invalid: %v", err)
	}
	if m.ClusterNodes() != 8 || m.BoosterNodes() != 32 || m.BoosterWorkers() != 8 {
		t.Fatalf("unexpected defaults: %v", m)
	}
	// Small machines clamp the default worker group instead of failing.
	small, err := deep.NewMachine(deep.WithBoosterNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if small.BoosterWorkers() != 2 {
		t.Fatalf("worker group not clamped: %d", small.BoosterWorkers())
	}
}

// TestWorkloadsVerifyOnDefaults runs every application workload on a
// small machine and checks self-verification.
func TestWorkloadsVerifyOnDefaults(t *testing.T) {
	m, err := deep.NewMachine(deep.WithClusterNodes(4), deep.WithBoosterNodes(8), deep.WithClusterRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range []deep.Workload{
		deep.Cholesky{N: 32, TileSize: 8, Workers: 4},
		deep.SpMV{NX: 16, NY: 16, Iters: 4},
		deep.Stencil{NX: 16, NY: 16, Iters: 4},
		deep.NBody{N: 16, Steps: 3},
	} {
		res, err := deep.Run(ctx, m.NewEnv(), w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if !res.Checked || !res.Verified {
			t.Fatalf("%s: not verified (checked=%v, err=%g)", w.Name(), res.Checked, res.MaxError)
		}
		if res.Workload != w.Name() {
			t.Fatalf("result workload %q, want %q", res.Workload, w.Name())
		}
	}
}

// TestCholeskyModelTimeIsMakespan: the workload's model time is the
// makespan of its task graph's list schedule on the node it is placed
// on (the booster's KNC or the cluster's Xeon), the scheduler E06 and
// A01 sweep.
func TestCholeskyModelTimeIsMakespan(t *testing.T) {
	m, err := deep.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	c, err := apps.NewCholesky(linalg.NewMatrix(128, 128), 16)
	if err != nil {
		t.Fatal(err)
	}
	var times []deep.ModelTime
	for _, booster := range []bool{false, true} {
		env := m.NewEnv()
		env.PlaceOnBooster = booster
		res, err := deep.Run(context.Background(), env, deep.Cholesky{N: 128, TileSize: 16, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		model := machine.Xeon
		if booster {
			model = machine.KNC
		}
		if want := deep.ModelTime(c.Graph(model).Makespan(4).Seconds()); res.ModelTime != want || want == 0 {
			t.Fatalf("booster=%v: model time %v, want the schedule's makespan %v", booster, res.ModelTime, want)
		}
		times = append(times, res.ModelTime)
	}
	if times[0] == times[1] {
		t.Fatalf("cluster and booster placements both model %v", times[0])
	}
}

// TestMPIWorkloadsDeterministicSideBySide is TestDeterminismMatrix's
// contract for the SDK workloads, whose Global-MPI ranks free-run as
// goroutines: each runs in two concurrent series of ten, beside the
// others, and every result must agree with the first byte for byte. NBody did not (its
// Allgather folded arrivals into the root's clock in host order).
// The second series runs on a WithDomains(4) machine: only TorusTraffic
// reads the domain count, so no other workload's result may depend on it
// (deepd drops the knob from their content keys on that basis).
func TestMPIWorkloadsDeterministicSideBySide(t *testing.T) {
	var machines [2]*deep.Machine
	for i, k := range []int{1, 4} {
		m, err := deep.NewMachine(deep.WithBoosterNodes(16), deep.WithEnergyMetering(), deep.WithDomains(k))
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	data := make([]float64, 256)
	for i := range data {
		data[i] = float64(i)
	}
	for _, w := range []deep.Workload{
		deep.SpMV{NX: 32, NY: 32, Iters: 30},
		deep.Stencil{NX: 32, NY: 64, Iters: 100},
		deep.NBody{N: 64, Steps: 10},
		deep.Offload{Kernel: "double", Data: data, FlopsPerRank: 1e6,
			Fn: func(rank, size int, in []float64) ([]float64, error) {
				lo, hi := deep.ShardRange(len(in), rank, size)
				out := make([]float64, hi-lo)
				for i := range out {
					out[i] = 2 * in[lo+i]
				}
				return out, nil
			}},
		deep.Cholesky{N: 256, TileSize: 16, Workers: 8},
		deep.ScheduledJobs{Dynamic: true, Ckpt: &deep.Checkpointing{Interval: 2, Write: 0.5, Buddy: true},
			Jobs: []deep.Job{{ID: 0, Duration: 5, Boosters: 8}, {ID: 1, Arrival: 1, Duration: 3, Boosters: 12}}},
	} {
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			const reps = 10
			var out [2][reps][]byte
			var errs [2]error
			var wg sync.WaitGroup
			for i := range out {
				wg.Add(1)
				go func() {
					defer wg.Done()
					env := machines[i].NewEnv()
					switch w.Name() {
					case "spmv", "stencil", "nbody":
						env.Ranks, env.PlaceOnBooster = 16, true
					}
					for rep := 0; rep < reps && errs[i] == nil; rep++ {
						var res *deep.Result
						if res, errs[i] = deep.Run(context.Background(), env, w); errs[i] == nil {
							out[i][rep], errs[i] = deep.CanonicalJSON(res)
						}
					}
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
				for rep, got := range out[i] {
					if !bytes.Equal(got, out[0][0]) {
						t.Fatalf("series %d run %d differs from the first run:\n%s\n%s", i, rep, got, out[0][0])
					}
				}
			}
		})
	}
}

// TestNBodyRoundsUpAndReports guards the satellite fix: a body count
// that does not divide over the ranks is rounded up and the result
// says so, instead of silently reporting a different N.
func TestNBodyRoundsUpAndReports(t *testing.T) {
	m, err := deep.NewMachine(deep.WithClusterRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := deep.Run(context.Background(), m.NewEnv(), deep.NBody{N: 10, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Summary, "n=12") {
		t.Fatalf("summary %q does not reflect the adjusted body count", res.Summary)
	}
	if len(res.Notes) == 0 || !strings.Contains(res.Notes[0], "rounded up from 10 to 12") {
		t.Fatalf("adjustment not reported: %v", res.Notes)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rounded up from 10 to 12") {
		t.Fatalf("WriteText does not surface the adjustment:\n%s", buf.String())
	}
}

// TestRanksBeyondClusterRejected: identity placement must not spill
// ranks past the cluster fabric (they would silently be charged
// booster/gateway costs).
func TestRanksBeyondClusterRejected(t *testing.T) {
	m, err := deep.NewMachine(deep.WithClusterNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	env := m.NewEnv()
	env.Ranks = 16
	if _, err := deep.Run(context.Background(), env, deep.SpMV{NX: 16, NY: 16, Iters: 2}); err == nil {
		t.Fatal("16 ranks on a 4-cluster-node machine accepted with cluster placement")
	}
	// Booster placement wraps explicitly and stays legal.
	env.PlaceOnBooster = true
	if _, err := deep.Run(context.Background(), env, deep.SpMV{NX: 16, NY: 16, Iters: 2}); err != nil {
		t.Fatalf("booster placement rejected: %v", err)
	}
}

// TestFaultsRefusedUnderPartition guards the typed refusal: fault
// injection cannot run on the partitioned kernel, the error is
// identifiable with errors.Is, and the message names the fix.
func TestFaultsRefusedUnderPartition(t *testing.T) {
	_, err := deep.NewMachine(
		deep.WithFaultInjector(deep.FaultPlan{NodeMTBF: 50, Repair: 2, Horizon: 300, Seed: 9}),
		deep.WithDomains(2))
	if err == nil {
		t.Fatal("NewMachine accepted fault injection under the partitioned kernel")
	}
	if !errors.Is(err, deep.ErrPartitionUnsupported) {
		t.Fatalf("error %v is not deep.ErrPartitionUnsupported", err)
	}
	if !strings.Contains(err.Error(), "WithDomains(1)") {
		t.Fatalf("error %q does not name the fix", err)
	}
}

// TestOffloadRejectsAmbiguousKernels checks the Fn/Reverse contract.
func TestOffloadRejectsAmbiguousKernels(t *testing.T) {
	m, err := deep.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deep.Run(context.Background(), m.NewEnv(), deep.Offload{}); err == nil {
		t.Fatal("offload with neither Fn nor Reverse accepted")
	}
}

// TestScheduledJobsUnderFaults runs a job mix on a faulty machine and
// checks that failures were injected and all jobs still completed.
func TestScheduledJobsUnderFaults(t *testing.T) {
	m, err := deep.NewMachine(
		deep.WithBoosterNodes(16),
		deep.WithFaultInjector(deep.FaultPlan{NodeMTBF: 50, Repair: 2, Horizon: 300, Seed: 9}),
	)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]deep.Job, 12)
	for i := range jobs {
		jobs[i] = deep.Job{ID: i, Arrival: float64(i), Duration: 5, Boosters: 1 + i%4}
	}
	res, err := deep.Run(context.Background(), m.NewEnv(),
		deep.ScheduledJobs{Jobs: jobs, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("jobs lost under faults: %v", res.Notes)
	}
	if failures, _ := res.Metric("node_failures"); failures == 0 {
		t.Fatal("fault plan injected no failures")
	}
	if _, ok := res.Metric("requeues"); !ok {
		t.Fatal("missing requeues metric")
	}
}

// TestScheduledJobsContiguousNeedsTorus checks the topology option
// contract.
func TestScheduledJobsContiguousNeedsTorus(t *testing.T) {
	m, err := deep.NewMachine(deep.WithBoosterNodes(16))
	if err != nil {
		t.Fatal(err)
	}
	_, err = deep.Run(context.Background(), m.NewEnv(),
		deep.ScheduledJobs{Jobs: []deep.Job{{Duration: 1, Boosters: 1}}, Dynamic: true, Contiguous: true})
	if err == nil {
		t.Fatal("contiguous allocation accepted without a torus machine")
	}
	// Local-only checkpoints without Buddy: an error, not a scheduler panic.
	_, err = deep.Run(context.Background(), m.NewEnv(), deep.ScheduledJobs{Jobs: []deep.Job{{Duration: 1, Boosters: 1}},
		Ckpt: &deep.Checkpointing{Interval: 2, Write: 0.5}})
	if err == nil {
		t.Fatal("checkpoint model without Buddy or a global tier accepted")
	}
}

// TestRunnerParallelMatchesSerial: the parallel runner must produce
// the identical report (order and bytes) as the serial one.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	ids := []string{"E01", "E04", "E06", "E12", "A03"}
	ctx := context.Background()
	serial, err := (&deep.Runner{}).Run(ctx, ids...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&deep.Runner{Parallel: 8}).Run(ctx, ids...)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := (deep.TableSink{}).Write(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := (deep.TableSink{}).Write(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("parallel report differs from serial report")
	}
	for i, r := range parallel.Results {
		if r.ID != ids[i] {
			t.Fatalf("result %d is %s, want %s (order lost)", i, r.ID, ids[i])
		}
	}
}

func TestRunnerUnknownExperiment(t *testing.T) {
	if _, err := (&deep.Runner{}).Run(context.Background(), "E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := (&deep.Runner{Parallel: 4}).Run(ctx, "E01", "E04")
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	for _, r := range rep.Results {
		if r.Err == nil && r.Table == nil {
			t.Fatalf("%s: neither table nor error recorded", r.ID)
		}
	}
}

// TestJSONSinkFullRegistry: the acceptance-criteria path — JSON for
// every registered experiment must parse and carry every table.
func TestJSONSinkFullRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	rep, err := (&deep.Runner{Parallel: 8}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (deep.JSONSink{Indent: true}).Write(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		ID    string `json:"id"`
		Table *struct {
			Rows [][]string `json:"rows"`
		} `json:"table"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != len(deep.ExperimentIDs()) {
		t.Fatalf("JSON has %d results, registry has %d", len(decoded), len(deep.ExperimentIDs()))
	}
	for _, d := range decoded {
		if d.Error != "" || d.Table == nil || len(d.Table.Rows) == 0 {
			t.Fatalf("%s: incomplete JSON result (err=%q)", d.ID, d.Error)
		}
	}
}

// TestE15JSONSummaryOnlyAtKAboveOne: the kernel counters are a K>1
// summary; at K=1 E15's JSON result carries no summary object.
func TestE15JSONSummaryOnlyAtKAboveOne(t *testing.T) {
	for k, want := range map[int]bool{1: false, 2: true} {
		rep, err := (&deep.Runner{Domains: k, MaxNodes: 1000}).Run(context.Background(), "E15")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (deep.JSONSink{}).Write(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(buf.String(), `"summary"`); got != want {
			t.Fatalf("K=%d: summary in JSON = %v, want %v:\n%s", k, got, want, buf.String())
		}
	}
}

// TestRunnerSeedOverridePropagates: a Runner seed must reach seeded
// experiments and change their output.
func TestRunnerSeedOverridePropagates(t *testing.T) {
	ctx := context.Background()
	a, err := (&deep.Runner{}).Run(ctx, "E02")
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&deep.Runner{Seed: 1234}).Run(ctx, "E02")
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := (deep.CSVSink{}).Write(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := (deep.CSVSink{}).Write(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if bufA.String() == bufB.String() {
		t.Fatal("seed override did not change E02")
	}
}

func TestFidelityOption(t *testing.T) {
	m, err := deep.NewMachine(deep.WithFidelity(deep.Flow))
	if err != nil {
		t.Fatal(err)
	}
	if m.Fidelity() != deep.Flow {
		t.Fatalf("fidelity = %v", m.Fidelity())
	}
	def, _ := deep.NewMachine()
	if def.Fidelity() != deep.DefaultFidelity {
		t.Fatalf("default fidelity = %v", def.Fidelity())
	}
	for s, want := range map[string]deep.Fidelity{
		"packet": deep.Packet, "flow": deep.Flow, "default": deep.DefaultFidelity,
	} {
		got, err := deep.ParseFidelity(s)
		if err != nil || got != want {
			t.Fatalf("ParseFidelity(%q) = %v, %v", s, got, err)
		}
		if want != deep.DefaultFidelity && got.String() != s {
			t.Fatalf("String() round trip: %q -> %q", s, got.String())
		}
	}
	// "auto" is the legacy name of a packet-exact mode.
	if got, err := deep.ParseFidelity("auto"); err != nil || got != deep.Packet {
		t.Fatalf(`ParseFidelity("auto") = %v, %v, want packet`, got, err)
	}
	if _, err := deep.ParseFidelity("exact"); err == nil {
		t.Fatal("ParseFidelity accepted an unknown level")
	}
}
