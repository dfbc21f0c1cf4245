package deep

import (
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// decodeSpec decodes a spec body the way deepd does: unknown fields are
// errors.
func decodeSpec(body string) (*Spec, error) {
	spec := &Spec{}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	return spec, dec.Decode(spec)
}

// normKey normalizes the spec and returns its content key.
func normKey(t *testing.T, spec *Spec) string {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatalf("normalize %+v: %v", spec, err)
	}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestContentKeyCanonical: spelling out defaults must not change the
// content address — the property that makes the cache hit for
// equivalent requests from different clients.
func TestContentKeyCanonical(t *testing.T) {
	base := normKey(t, &Spec{Experiment: "E01"})
	for name, spec := range map[string]*Spec{
		"explicit default fidelity": {Experiment: "E01", Fidelity: "default"},
		"explicit scale 1":          {Experiment: "E01", Scale: 1},
		"explicit one domain":       {Experiment: "E01", Domains: 1},
		"fixed windows":             {Experiment: "E01", MaxWindow: 1},
		"deadline is a hint":        {Experiment: "E01", DeadlineS: 5},
	} {
		if got := normKey(t, spec); got != base {
			t.Errorf("%s: key %s != %s", name, got, base)
		}
	}
	workload := &Spec{Workload: &WorkloadSpec{Kind: "spmv"}}
	explicit := &Spec{Workload: &WorkloadSpec{Kind: "spmv", NX: 32, NY: 32, Iters: 10}}
	if normKey(t, workload) != normKey(t, explicit) {
		t.Error("defaulted and explicit spmv specs hash differently")
	}
}

// TestContentKeySeparates: anything that changes what a job computes
// or records must change the content address.
func TestContentKeySeparates(t *testing.T) {
	keys := map[string]string{}
	for name, spec := range map[string]*Spec{
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

const (
	stencilOnMachine = `"workload":{"kind":"stencil"},"machine":{"cluster_nodes":16,"booster_torus":[2,2,4]}`
	jobsCkpt         = `"workload":{"kind":"jobs","jobs":[{"id":0,"duration_s":5,"boosters":2},` +
		`{"id":1,"arrival_s":1,"duration_s":3,"boosters":4}],"dynamic":true,` +
		`"ckpt":{"interval_s":2,"write_s":0.5,"buddy":true}}`
	// overflowTorus names a torus whose x*y*z wraps around to 4 nodes.
	overflowTorus = `{"workload":{"kind":"traffic","messages":8},"machine":{"booster_torus":[4611686018427387905,4,1]}}`
)

// pinnedKeys holds the content address of a spec per run knob and
// workload kind at the values an earlier server computed, so a cache or
// store it filled keeps hitting.
var pinnedKeys = map[string]string{ // spec -> content key
	`{"experiment":"E01"}`:                                            "8d68644a200a418417a558e7d088246e7049fee5b1a2ebba8c5fcfc438b0c076",
	`{"experiment":"E04","seed":7}`:                                   "d217a7c0823abe9ec6ad9d7afbe94439aac4c4ef2ffbffdbda87447e1046cb23",
	`{"experiment":"E13","trace":true}`:                               "a5f2a64452685329c6cc85ec45a42a9991f28b275fedf9d4936e0534b03029ae",
	`{"experiment":"E16","energy":true,"metrics_every_s":0.5}`:        "e7f9c6b35a2156f859237344b3e1b4f7bd00a1c9bdc56be72c90253a63a01bbf",
	`{"experiment":"E15","domains":4,"max_window":8}`:                 "f271a474df27f2af6aade5997f9243a7b94bdc5bfbebf46e7e63c2454e4bada1",
	`{"workload":{"kind":"spmv"}}`:                                    "171603c01303f71efc0e7527910efc3566a3d55c78f1a3c3551d7d0921f86c94",
	`{` + stencilOnMachine + `}`:                                      "92b0d3e412bbe702f9137391ab55fec0b6704fcb2af546ba4a292c23396f24de",
	`{"workload":{"kind":"nbody","ranks":8,"place_on_booster":true}}`: "5e5baa8d3f16785677f59d6b4ed73eadd2655f5a1e61cc6e97a6704c4ce32e57",
	`{"workload":{"kind":"cholesky"}}`:                                "98e7c8f8735f49a80a30fec7235497fcc3a45257f4c86dfee23315bddef5e4ce", // v2: modelled schedule, not the wall-clock runtime
	`{` + jobsCkpt + `}`:                                              "7bfe5e508dcd124ca3d69cdee13e378dff3c27e21c7932ab17386b617590793a",
	`{"workload":{"kind":"traffic"},"domains":2}`:                     "df777c3ffe83a5cda55fa63f40a6bc041d65c65ff533dd7006a61986d9f5cef3", // v2: fed injections moved pool_hit_rate
	`{"workload":{"kind":"traffic"},"fidelity":"flow"}`:               "e3414e74fe27f0df0707a90fa7cf4213b74d7fb4fafc3aff2e5c9fd6858cc3d2", // v2: fed injections moved pool_hit_rate
}

// TestContentKeysPinned holds pinnedKeys. A twin differs from a pinned
// spec only in knobs its kind ignores and must hash to that pin.
func TestContentKeysPinned(t *testing.T) {
	twins := map[string]string{ // spec -> the pinned spec it must hash as
		`{` + stencilOnMachine + `,"domains":4}`:                   `{` + stencilOnMachine + `}`,
		`{"workload":{"kind":"spmv"},"domains":-1,"max_window":8}`: `{"workload":{"kind":"spmv"}}`,
		`{` + jobsCkpt + `,"domains":2}`:                           `{` + jobsCkpt + `}`,
	}
	key := func(body string) string {
		t.Helper()
		spec, err := decodeSpec(body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return normKey(t, spec)
	}
	for spec, want := range pinnedKeys {
		if got := key(spec); got != want {
			t.Errorf("%s: key %s, pinned %s", spec, got, want)
		}
	}
	for spec, twin := range twins {
		if got := key(spec); got != pinnedKeys[twin] {
			t.Errorf("%s: key %s, want %s's %s", spec, got, twin, pinnedKeys[twin])
		}
	}
}

// TestRunKeysPinned holds the Runner's store keys at the values an
// earlier release computed, so a resumable sweep's store keeps hitting.
// The last pin spells every default out (and two negatives the Runner
// tolerates); it must hash like the zero Runner's knobs.
func TestRunKeysPinned(t *testing.T) {
	for _, c := range []struct {
		id  string
		r   Runner
		key string
	}{
		{"E01", Runner{}, "a4fe008f53c083cc8167d478045de34c38c7609bc58a04f0057e90308fad86dc"},
		{"E04", Runner{Seed: 7}, "856da04d355d5fb38a22f2cb20578cd662974f33ed0e04c5d7a8136bfd9060d6"},
		{"E13", Runner{Scale: 2, Fidelity: Flow}, "73909933466b44593b79184c9d33eac49ab7137c19da714b1223a1ebef2d412d"},
		{"E16", Runner{Energy: true, Scale: 1}, "c0a4aaff5ef4cd809eb90d8c75d67607ad5d8715138a8436c8296edde9fa4678"},
		{"E15", Runner{Domains: 4, MaxWindow: 8, MaxNodes: 1_000_000}, "af3dd068f2e2b1727fa81f28f01a77f7472161a0223f8414dd4f1566626a0501"},
		{"E15", Runner{Domains: 1, MaxWindow: 1, Fidelity: Packet}, "b0128681069e4cd5655f3ea8e727f23381d1672fbe41b6a80275f24f151eaf94"},
		{"E09", Runner{Fidelity: Auto, Scale: 0.5, Seed: 3}, "c70444a6e389ad12080c6ee1cf5c0e9fb1c4367f10ba69f5633944347f7aeb90"},
		{"E10", Runner{Scale: 1, Domains: 1, MaxWindow: -2, MaxNodes: -5}, "4d278e00905f9168fbd6950686a0dcc1899f64d1dbc0d0d7326c8385d3932878"},
	} {
		if got, err := runKey(c.id, c.r.settings()); err != nil || got != c.key {
			t.Errorf("%s %+v: key %s (%v), pinned %s", c.id, c.r.settings(), got, err, c.key)
		}
	}
	// A negative domain count resolves to GOMAXPROCS before hashing.
	auto, _ := runKey("E15", (&Runner{Domains: -1}).settings())
	exact, _ := runKey("E15", (&Runner{Domains: runtime.GOMAXPROCS(0)}).settings())
	if auto != exact {
		t.Errorf("domains -1 hashes %s, domains GOMAXPROCS %s", auto, exact)
	}
}

// TestNormalizeRejects: every invalid spec fails Normalize; the
// unknown-name cases carry their sentinel and nothing else does.
func TestNormalizeRejects(t *testing.T) {
	jobs := []Job{{Duration: 5, Boosters: 2}}
	cases := map[string]struct {
		spec *Spec
		is   error // nil: a plain invalid value
	}{
		"empty":        {&Spec{}, nil},
		"both kinds":   {&Spec{Experiment: "E01", Workload: &WorkloadSpec{Kind: "spmv"}}, nil},
		"expt machine": {&Spec{Experiment: "E01", Machine: &MachineSpec{ClusterNodes: 4}}, nil},
		"unknown expt": {&Spec{Experiment: "E99"}, ErrUnknownExperiment},
		"bad fidelity": {&Spec{Experiment: "E01", Fidelity: "exact"}, nil},
		"neg scale":    {&Spec{Experiment: "E01", Scale: -1}, nil},
		"neg nodes":    {&Spec{Experiment: "E15", MaxNodes: -1}, nil},
		"neg deadline": {&Spec{Experiment: "E01", DeadlineS: -1}, nil},
		"neg metrics":  {&Spec{Experiment: "E01", MetricsEveryS: -1}, nil},
		"no kind":      {&Spec{Workload: &WorkloadSpec{}}, ErrUnknownWorkload},
		"bad kind":     {&Spec{Workload: &WorkloadSpec{Kind: "offload"}}, ErrUnknownWorkload},
		// Validated before Normalize drops the knob from the stencil spec.
		"neg window":                 {&Spec{Workload: &WorkloadSpec{Kind: "stencil"}, MaxWindow: -1}, nil},
		"workload nodes":             {&Spec{Workload: &WorkloadSpec{Kind: "spmv"}, MaxNodes: 64}, nil},
		"neg ranks":                  {&Spec{Workload: &WorkloadSpec{Kind: "spmv", Ranks: -1}}, nil},
		"overflowing spmv grid":      {&Spec{Workload: &WorkloadSpec{Kind: "spmv", NX: 1 << 32, NY: 1 << 32}}, nil},
		"overflowing stencil grid":   {&Spec{Workload: &WorkloadSpec{Kind: "stencil", NX: 1 << 32, NY: 1 << 32}}, nil},
		"narrow stencil":             {&Spec{Workload: &WorkloadSpec{Kind: "stencil", NX: 2}}, nil},
		"flat stencil":               {&Spec{Workload: &WorkloadSpec{Kind: "stencil", NY: 1}}, nil},
		"ragged tiles":               {&Spec{Workload: &WorkloadSpec{Kind: "cholesky", N: 100, TileSize: 16}}, nil},
		"neg traffic":                {&Spec{Workload: &WorkloadSpec{Kind: "traffic", WindowMS: -1}}, nil},
		"sub-ps traffic window":      {&Spec{Workload: &WorkloadSpec{Kind: "traffic", WindowMS: 1e-10}}, nil},
		"overflowing traffic window": {&Spec{Workload: &WorkloadSpec{Kind: "traffic", WindowMS: 1e10}}, nil},
		"NaN traffic window":         {&Spec{Workload: &WorkloadSpec{Kind: "traffic", WindowMS: math.NaN()}}, nil},
		"Inf traffic window":         {&Spec{Workload: &WorkloadSpec{Kind: "traffic", WindowMS: math.Inf(1)}}, nil},
		"empty jobs":                 {&Spec{Workload: &WorkloadSpec{Kind: "jobs"}}, nil},
		"bad job": {&Spec{Workload: &WorkloadSpec{Kind: "jobs",
			Jobs: []Job{{Arrival: -1, Duration: 1, Boosters: 1}}}}, nil},
		// The checkpoint model's own rules, which the scheduler panics on.
		"ckpt no buddy": {&Spec{Workload: &WorkloadSpec{Kind: "jobs", Jobs: jobs,
			Ckpt: &Checkpointing{Interval: 2, Write: 0.5}}}, nil},
		"ckpt zero ps interval": {&Spec{Workload: &WorkloadSpec{Kind: "jobs", Jobs: jobs,
			Ckpt: &Checkpointing{Interval: 1e-13, Buddy: true}}}, nil},
		"bad torus": {&Spec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterTorus: []int{2, 2}}}, nil},
		"flat torus": {&Spec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterTorus: []int{0, 4, 4}}}, nil},
		"torus contradiction": {&Spec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterNodes: 9, BoosterTorus: []int{2, 2, 2}}}, nil},
		"bad machine": {&Spec{Workload: &WorkloadSpec{Kind: "spmv"},
			Machine: &MachineSpec{BoosterNodes: 4, BoosterWorkers: 8}}, nil},
	}
	for name, c := range cases {
		err := c.spec.Normalize()
		switch {
		case err == nil:
			t.Errorf("%s: accepted", name)
		case c.is != nil && !errors.Is(err, c.is):
			t.Errorf("%s: %v is not %v", name, err, c.is)
		case c.is == nil && (errors.Is(err, ErrUnknownExperiment) || errors.Is(err, ErrUnknownWorkload)):
			t.Errorf("%s: invalid value reported as an unknown name: %v", name, err)
		}
	}
}

// TestTorusOverflowRejected: a torus whose x*y*z overflows an int is
// refused by NewMachine, and so by Normalize, instead of running on the
// wrapped-around node count.
func TestTorusOverflowRejected(t *testing.T) {
	const big = 4611686018427387905 // big*4 wraps to 4
	if m, err := NewMachine(WithBoosterTorus(big, 4, 1)); err == nil {
		t.Fatalf("NewMachine accepted an overflowing torus: %v", m)
	}
	if _, err := NewMachine(WithBoosterTorus(1, big, 4)); err == nil {
		t.Fatal("NewMachine accepted an overflowing torus in y*z")
	}
	spec, err := decodeSpec(overflowTorus)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err == nil {
		t.Fatalf("Normalize accepted the overflowing torus as %d booster nodes", spec.Machine.BoosterNodes)
	}
}

// TestNormalizeFillsDefaults: a workload spec gets its defaults, and the
// partition knobs leave the specs of workloads that ignore them.
func TestNormalizeFillsDefaults(t *testing.T) {
	spec := &Spec{Workload: &WorkloadSpec{Kind: "spmv"}, Domains: 2, MaxWindow: 8}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if w := spec.Workload; w.NX != 32 || w.NY != 32 || w.Iters != 10 || spec.Domains != 0 || spec.MaxWindow != 0 {
		t.Fatalf("spmv normalized to %+v, domains %d, max_window %d", *w, spec.Domains, spec.MaxWindow)
	}
	traffic := &Spec{Workload: &WorkloadSpec{Kind: "traffic"}, Domains: 2, MaxWindow: 8}
	if err := traffic.Normalize(); err != nil {
		t.Fatal(err)
	}
	if w := traffic.Workload; w.Messages != 4096 || w.MsgBytes != 2048 || w.WindowMS != 1 ||
		traffic.Domains != 2 || traffic.MaxWindow != 8 {
		t.Fatalf("traffic normalized to %+v, domains %d, max_window %d", *w, traffic.Domains, traffic.MaxWindow)
	}
}

// TestSpecWireNames: the deep types a spec embeds marshal under the
// wire names deepd has always accepted.
func TestSpecWireNames(t *testing.T) {
	spec := &Spec{Workload: &WorkloadSpec{Kind: "jobs", Ckpt: &Checkpointing{
		Interval: 1, Write: 2, Restore: 3, Buddy: true, IOWatts: 4}},
		Machine: &MachineSpec{
			Faults:       &FaultPlan{NodeMTBF: 1, WeibullShape: 2, Repair: 3, Horizon: 4, Seed: 5},
			ClusterPower: &PowerModel{SleepWatts: 1, IdleWatts: 2, PeakWatts: 3, WakeLatency: 4},
		}}
	b, err := CanonicalJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"machine":{"cluster_power":{"idle_watts":2,"peak_watts":3,"sleep_watts":1,"wake_latency_s":4},` +
		`"faults":{"horizon_s":4,"node_mtbf_s":1,"repair_s":3,"seed":5,"weibull_shape":2}},` +
		`"workload":{"ckpt":{"buddy":true,"interval_s":1,"io_watts":4,"restore_s":3,"write_s":2},"kind":"jobs"}}`
	if string(b) != want {
		t.Fatalf("wire form\n%s\nwant\n%s", b, want)
	}
}

// FuzzNormalizeSpec: any JSON body either fails (to decode or to
// normalize) or normalizes to a spec that normalizing again leaves
// byte-identical, with the same content key.
func FuzzNormalizeSpec(f *testing.F) {
	for body := range pinnedKeys {
		f.Add(body)
	}
	f.Add(overflowTorus)
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeSpec(body)
		if err != nil || spec.Normalize() != nil {
			return
		}
		key, err := spec.Key()
		if err != nil {
			t.Fatalf("%s: key: %v", body, err)
		}
		canon, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeSpec(string(canon))
		if err != nil {
			t.Fatalf("canonical form %s does not decode: %v", canon, err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("canonical form %s fails to normalize: %v", canon, err)
		}
		if b, _ := json.Marshal(again); string(b) != string(canon) {
			t.Fatalf("normalize is not idempotent:\n%s\n%s", canon, b)
		}
		if k, _ := again.Key(); k != key {
			t.Fatalf("%s: key moved from %s to %s on renormalizing", canon, key, k)
		}
	})
}
