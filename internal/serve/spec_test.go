package serve

import (
	"errors"
	"strings"
	"testing"

	"repro/deep"
)

// TestNormalizeRejects: a spec Normalize refuses maps onto its API
// code — the two unknown-name sentinels keep their own codes and every
// other refusal is an invalid request (deep's spec tests hold the full
// list of refusals).
func TestNormalizeRejects(t *testing.T) {
	cases := map[string]struct {
		spec *JobSpec
		code ErrorCode
	}{
		"empty":        {&JobSpec{}, ErrInvalidRequest},
		"unknown expt": {&JobSpec{Experiment: "E99"}, ErrUnknownExperiment},
		"bad fidelity": {&JobSpec{Experiment: "E01", Fidelity: "exact"}, ErrInvalidRequest},
		"no kind":      {&JobSpec{Workload: &deep.WorkloadSpec{}}, ErrUnknownWorkload},
		"bad kind":     {&JobSpec{Workload: &deep.WorkloadSpec{Kind: "offload"}}, ErrUnknownWorkload},
		"bad machine": {&JobSpec{Workload: &deep.WorkloadSpec{Kind: "spmv"},
			Machine: &deep.MachineSpec{BoosterNodes: 4, BoosterWorkers: 8}}, ErrInvalidRequest},
	}
	for name, c := range cases {
		_, err := normalize(c.spec)
		var typed *Error
		switch {
		case err == nil:
			t.Errorf("%s: accepted", name)
		case !errors.As(err, &typed):
			t.Errorf("%s: untyped error %v", name, err)
		case typed.Code != c.code || typed.Status() != 400:
			t.Errorf("%s: code %s (HTTP %d), want %s", name, typed.Code, typed.Status(), c.code)
		}
	}
}

// TestContentKeyCanonical: submissions that spell out defaults share
// the bare submission's content address — the cache hits for
// equivalent requests from different clients — and the server's
// default domain count hashes as if the client had spelled it out.
func TestContentKeyCanonical(t *testing.T) {
	h := newHarness(t, Options{Workers: 1, DefaultDomains: 2})
	defer h.blockingExec()()
	for _, group := range [][]string{
		{`{"experiment":"E01"}`,
			`{"experiment":"E01","scale":1,"fidelity":"default","max_window":1,"deadline_s":5}`,
			`{"experiment":"E01","domains":2}`},
		{`{"workload":{"kind":"spmv"}}`,
			`{"workload":{"kind":"spmv","nx":32,"ny":32,"iters":10},"domains":1}`},
		{`{"workload":{"kind":"traffic"}}`,
			`{"workload":{"kind":"traffic","messages":4096,"msg_bytes":2048,"window_ms":1},"domains":2}`},
	} {
		want := h.submit(group[0]).Key
		for _, body := range group[1:] {
			if got := h.submit(body).Key; got != want {
				t.Errorf("%s: key %s, %s has %s", body, got, group[0], want)
			}
		}
	}
	// An explicit sequential kernel overrides the server default, so it
	// must not share the defaulted traffic job's address.
	if h.submit(`{"workload":{"kind":"traffic"},"domains":1}`).Key == h.submit(`{"workload":{"kind":"traffic"}}`).Key {
		t.Error("traffic at domains 1 hashes like the server's default domains 2")
	}
}

// TestNormalizeFaultsUnderDomains: fault injection on the partitioned
// kernel is refused at submit time — Normalize exercises NewMachine's
// validation, so the client gets the clear message instead of a worker
// failing later. Only traffic runs on that kernel: a jobs spec drops
// the domain count and is accepted.
func TestNormalizeFaultsUnderDomains(t *testing.T) {
	faults := &deep.FaultPlan{NodeMTBF: 50, Repair: 2, Horizon: 300}
	spec := &JobSpec{Workload: &deep.WorkloadSpec{Kind: "traffic"}, Machine: &deep.MachineSpec{Faults: faults}, Domains: 2}
	_, err := normalize(spec)
	if err == nil {
		t.Fatal("normalize accepted faults under domains > 1")
	}
	var typed *Error
	if !errors.As(err, &typed) || typed.Code != ErrInvalidRequest {
		t.Fatalf("error %v is not a typed ErrInvalidRequest", err)
	}
	if !strings.Contains(err.Error(), "not supported under the partitioned kernel") {
		t.Fatalf("error %q does not carry the partition message", err)
	}
	jobs := &JobSpec{
		Workload: &deep.WorkloadSpec{Kind: "jobs", Jobs: []deep.Job{{Duration: 5, Boosters: 2}}},
		Machine:  &deep.MachineSpec{Faults: faults},
		Domains:  2,
	}
	if _, err := normalize(jobs); err != nil {
		t.Fatalf("jobs spec with faults and domains 2: %v", err)
	}
	if jobs.Domains != 0 {
		t.Fatalf("jobs spec kept domains %d", jobs.Domains)
	}
}

// TestNormalizeTorusFillsNodes: a torus spec implies the node count.
func TestNormalizeTorusFillsNodes(t *testing.T) {
	spec := &JobSpec{
		Workload: &deep.WorkloadSpec{Kind: "spmv"},
		Machine:  &deep.MachineSpec{BoosterTorus: []int{3, 3, 3}},
	}
	if _, err := normalize(spec); err != nil {
		t.Fatal(err)
	}
	if spec.Machine.BoosterNodes != 27 {
		t.Fatalf("booster nodes = %d", spec.Machine.BoosterNodes)
	}
}
