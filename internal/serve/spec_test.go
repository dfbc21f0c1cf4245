package serve

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/deep"
)

// normKey normalizes the spec and returns its content key.
func normKey(t *testing.T, spec *JobSpec) string {
	t.Helper()
	if err := spec.normalize(); err != nil {
		t.Fatalf("normalize %+v: %v", spec, err)
	}
	key, err := spec.contentKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestContentKeyCanonical: spelling out defaults must not change the
// content address — the property that makes the cache hit for
// equivalent requests from different clients.
func TestContentKeyCanonical(t *testing.T) {
	base := normKey(t, &JobSpec{Experiment: "E01"})
	for name, spec := range map[string]*JobSpec{
		"explicit default fidelity": {Experiment: "E01", Fidelity: "default"},
		"explicit scale 1":          {Experiment: "E01", Scale: 1},
		"deadline is a hint":        {Experiment: "E01", DeadlineS: 5},
	} {
		if got := normKey(t, spec); got != base {
			t.Errorf("%s: key %s != %s", name, got, base)
		}
	}
	workload := &JobSpec{Workload: &WorkloadSpec{Kind: "spmv"}}
	explicit := &JobSpec{Workload: &WorkloadSpec{Kind: "spmv", NX: 32, NY: 32, Iters: 10}}
	if normKey(t, workload) != normKey(t, explicit) {
		t.Error("defaulted and explicit spmv specs hash differently")
	}
}

// TestContentKeySeparates: anything that changes what a job computes
// or records must change the content address.
func TestContentKeySeparates(t *testing.T) {
	keys := map[string]string{}
	for name, spec := range map[string]*JobSpec{
		"e01":          {Experiment: "E01"},
		"e04":          {Experiment: "E04"},
		"e01 seeded":   {Experiment: "E01", Seed: 7},
		"e01 scaled":   {Experiment: "E01", Scale: 2},
		"e01 flow":     {Experiment: "E01", Fidelity: "flow"},
		"e01 energy":   {Experiment: "E01", Energy: true},
		"e01 traced":   {Experiment: "E01", Trace: true},
		"e01 sampled":  {Experiment: "E01", MetricsEveryS: 0.5},
		"e15":          {Experiment: "E15"},
		"e15 domains":  {Experiment: "E15", Domains: 4},
		"traffic":      {Workload: &WorkloadSpec{Kind: "traffic"}},
		"traffic dom":  {Workload: &WorkloadSpec{Kind: "traffic"}, Domains: 2},
		"spmv":         {Workload: &WorkloadSpec{Kind: "spmv"}},
		"spmv big":     {Workload: &WorkloadSpec{Kind: "spmv", NX: 64}},
		"spmv booster": {Workload: &WorkloadSpec{Kind: "spmv", PlaceOnBooster: true}},
		"spmv machine": {Workload: &WorkloadSpec{Kind: "spmv"}, Machine: &MachineSpec{ClusterNodes: 16}},
	} {
		key := normKey(t, spec)
		if prev, dup := keys[key]; dup {
			t.Errorf("%s and %s share a content key", name, prev)
		}
		keys[key] = name
	}
}

// TestContentKeysPinned holds the content address of a spec per run
// knob and workload kind at the values an earlier server computed, so a
// cache or store it filled keeps hitting. A twin differs from a pinned
// spec only in knobs its kind ignores and must hash to that pin.
func TestContentKeysPinned(t *testing.T) {
	const (
		stencilOnMachine = `"workload":{"kind":"stencil"},"machine":{"cluster_nodes":16,"booster_torus":[2,2,4]}`
		jobsCkpt         = `"workload":{"kind":"jobs","jobs":[{"id":0,"duration_s":5,"boosters":2},` +
			`{"id":1,"arrival_s":1,"duration_s":3,"boosters":4}],"dynamic":true,` +
			`"ckpt":{"interval_s":2,"write_s":0.5,"buddy":true}}`
	)
	pins := map[string]string{ // spec -> content key
		`{"experiment":"E01"}`:                                            "8d68644a200a418417a558e7d088246e7049fee5b1a2ebba8c5fcfc438b0c076",
		`{"experiment":"E04","seed":7}`:                                   "d217a7c0823abe9ec6ad9d7afbe94439aac4c4ef2ffbffdbda87447e1046cb23",
		`{"experiment":"E13","trace":true}`:                               "a5f2a64452685329c6cc85ec45a42a9991f28b275fedf9d4936e0534b03029ae",
		`{"experiment":"E16","energy":true,"metrics_every_s":0.5}`:        "e7f9c6b35a2156f859237344b3e1b4f7bd00a1c9bdc56be72c90253a63a01bbf",
		`{"experiment":"E15","domains":4,"max_window":8}`:                 "f271a474df27f2af6aade5997f9243a7b94bdc5bfbebf46e7e63c2454e4bada1",
		`{"workload":{"kind":"spmv"}}`:                                    "171603c01303f71efc0e7527910efc3566a3d55c78f1a3c3551d7d0921f86c94",
		`{` + stencilOnMachine + `}`:                                      "92b0d3e412bbe702f9137391ab55fec0b6704fcb2af546ba4a292c23396f24de",
		`{"workload":{"kind":"nbody","ranks":8,"place_on_booster":true}}`: "5e5baa8d3f16785677f59d6b4ed73eadd2655f5a1e61cc6e97a6704c4ce32e57",
		`{"workload":{"kind":"cholesky"}}`:                                "5a20900ff0326640af11b36ff730d2df43228fed37a484d5b0c1c15ebbcdc59b",
		`{` + jobsCkpt + `}`:                                              "7bfe5e508dcd124ca3d69cdee13e378dff3c27e21c7932ab17386b617590793a",
		`{"workload":{"kind":"traffic"},"domains":2}`:                     "25168ac2b1fddd5d0e4c2bec0495e973573b8fae2c50045be0f4b9b0f40fd0b0",
		`{"workload":{"kind":"traffic"},"fidelity":"flow"}`:               "fb1d1cf02725e5446cb84bfdd3e77ec678154a85f6dca3ab48cf33432c4a5661",
	}
	twins := map[string]string{ // spec -> the pinned spec it must hash as
		`{` + stencilOnMachine + `,"domains":4}`:                   `{` + stencilOnMachine + `}`,
		`{"workload":{"kind":"spmv"},"domains":-1,"max_window":8}`: `{"workload":{"kind":"spmv"}}`,
		`{` + jobsCkpt + `,"domains":2}`:                           `{` + jobsCkpt + `}`,
	}
	key := func(body string) string {
		t.Helper()
		spec := &JobSpec{}
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(spec); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return normKey(t, spec)
	}
	for spec, want := range pins {
		if got := key(spec); got != want {
			t.Errorf("%s: key %s, pinned %s", spec, got, want)
		}
	}
	for spec, twin := range twins {
		if got := key(spec); got != pins[twin] {
			t.Errorf("%s: key %s, want %s's %s", spec, got, twin, pins[twin])
		}
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := map[string]struct {
		spec *JobSpec
		code ErrorCode
	}{
		"empty":        {&JobSpec{}, ErrInvalidRequest},
		"both kinds":   {&JobSpec{Experiment: "E01", Workload: &WorkloadSpec{Kind: "spmv"}}, ErrInvalidRequest},
		"expt machine": {&JobSpec{Experiment: "E01", Machine: &MachineSpec{ClusterNodes: 4}}, ErrInvalidRequest},
		"unknown expt": {&JobSpec{Experiment: "E99"}, ErrUnknownExperiment},
		"bad fidelity": {&JobSpec{Experiment: "E01", Fidelity: "exact"}, ErrInvalidRequest},
		"neg scale":    {&JobSpec{Experiment: "E01", Scale: -1}, ErrInvalidRequest},
		"neg deadline": {&JobSpec{Experiment: "E01", DeadlineS: -1}, ErrInvalidRequest},
		"neg metrics":  {&JobSpec{Experiment: "E01", MetricsEveryS: -1}, ErrInvalidRequest},
		"no kind":      {&JobSpec{Workload: &WorkloadSpec{}}, ErrUnknownWorkload},
		"bad kind":     {&JobSpec{Workload: &WorkloadSpec{Kind: "offload"}}, ErrUnknownWorkload},
		// Validated before normalize drops the knob from the stencil spec.
		"neg window": {&JobSpec{Workload: &WorkloadSpec{Kind: "stencil"}, MaxWindow: -1}, ErrInvalidRequest},
		"empty jobs": {&JobSpec{Workload: &WorkloadSpec{Kind: "jobs"}}, ErrInvalidRequest},
		"bad job": {&JobSpec{Workload: &WorkloadSpec{Kind: "jobs",
			Jobs: []deep.Job{{Arrival: -1, Duration: 1, Boosters: 1}}}}, ErrInvalidRequest},
		// The checkpoint model's own rules, which the scheduler panics on.
		"ckpt no buddy": {&JobSpec{Workload: &WorkloadSpec{Kind: "jobs", Jobs: []deep.Job{{Duration: 5, Boosters: 2}},
			Ckpt: &CkptSpec{IntervalS: 2, WriteS: 0.5}}}, ErrInvalidRequest},
		"ckpt zero ps interval": {&JobSpec{Workload: &WorkloadSpec{Kind: "jobs", Jobs: []deep.Job{{Duration: 5, Boosters: 2}},
			Ckpt: &CkptSpec{IntervalS: 1e-13, Buddy: true}}}, ErrInvalidRequest},
		"bad torus": {&JobSpec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterTorus: []int{2, 2}}}, ErrInvalidRequest},
		"torus contradiction": {&JobSpec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterNodes: 9, BoosterTorus: []int{2, 2, 2}}}, ErrInvalidRequest},
		"bad machine": {&JobSpec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterNodes: 4, BoosterWorkers: 8}}, ErrInvalidRequest},
	}
	for name, c := range cases {
		err := c.spec.normalize()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var typed *Error
		if !errors.As(err, &typed) {
			t.Errorf("%s: untyped error %v", name, err)
			continue
		}
		if typed.Code != c.code {
			t.Errorf("%s: code %s, want %s", name, typed.Code, c.code)
		}
	}
}

// TestNormalizeFaultsUnderDomains: fault injection on the partitioned
// kernel is refused at submit time — normalize exercises NewMachine's
// validation, so the client gets the clear message instead of a worker
// failing later. Only traffic runs on that kernel: a jobs spec drops
// the domain count and is accepted.
func TestNormalizeFaultsUnderDomains(t *testing.T) {
	faults := &FaultSpec{NodeMTBFS: 50, RepairS: 2, HorizonS: 300}
	spec := &JobSpec{Workload: &WorkloadSpec{Kind: "traffic"}, Machine: &MachineSpec{Faults: faults}, Domains: 2}
	err := spec.normalize()
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
		Workload: &WorkloadSpec{Kind: "jobs", Jobs: []deep.Job{{Duration: 5, Boosters: 2}}},
		Machine:  &MachineSpec{Faults: faults},
		Domains:  2,
	}
	if err := jobs.normalize(); err != nil {
		t.Fatalf("jobs spec with faults and domains 2: %v", err)
	}
	if jobs.Domains != 0 {
		t.Fatalf("jobs spec kept domains %d", jobs.Domains)
	}
}

// TestNormalizeTorusFillsNodes: a torus spec implies the node count.
func TestNormalizeTorusFillsNodes(t *testing.T) {
	spec := &JobSpec{
		Workload: &WorkloadSpec{Kind: "spmv"},
		Machine:  &MachineSpec{BoosterTorus: []int{3, 3, 3}},
	}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.Machine.BoosterNodes != 27 {
		t.Fatalf("booster nodes = %d", spec.Machine.BoosterNodes)
	}
}
