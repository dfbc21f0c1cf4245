package expt

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fabric"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"A01", "A02", "A03", "A04",
		"E01", "E02", "E03", "E04", "E05", "E06",
		"E07", "E08", "E09", "E10", "E11", "E12",
		"E13", "E14", "E15", "E16",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(ids), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], id)
		}
	}
	for _, e := range All() {
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("E01"); !ok {
		t.Fatal("E01 missing")
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("E99 present")
	}
}

// run executes an experiment and indexes its rows by first column.
func run(t *testing.T, id string) map[string][]string {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tab, err := e.Run(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	out := make(map[string][]string, len(tab.Rows))
	for _, r := range tab.Rows {
		out[r[0]] = r
	}
	return out
}

func f(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestE01ExtollWinsEverywhereAndGapWidens(t *testing.T) {
	rows := run(t, "E01")
	for _, size := range []string{"64", "4096", "1048576", "67108864"} {
		r, ok := rows[size]
		if !ok {
			t.Fatalf("no row for size %s", size)
		}
		if r[5] != "extoll" {
			t.Fatalf("size %s: winner %s", size, r[5])
		}
	}
	// The gap must widen from the bandwidth-bound region onwards: the
	// host-staging copy compounds with message size.
	midRatio := f(t, rows["4096"][1]) / f(t, rows["4096"][2])
	bigRatio := f(t, rows["67108864"][1]) / f(t, rows["67108864"][2])
	if bigRatio <= midRatio {
		t.Fatalf("PCIe penalty did not widen: %.2f at 4 KiB vs %.2f at 64 MiB", midRatio, bigRatio)
	}
	// At 64 MiB the staging + shared bus should cost >= 1.5x.
	big := rows["67108864"]
	if f(t, big[1]) < 1.5*f(t, big[2]) {
		t.Fatalf("large-message PCIe penalty too small: %s vs %s", big[1], big[2])
	}
}

func TestE02DynamicWins(t *testing.T) {
	rows := run(t, "E02")
	static, dynamic := rows["static"], rows["dynamic"]
	if static == nil || dynamic == nil {
		t.Fatal("missing modes")
	}
	if f(t, dynamic[1])*1.3 > f(t, static[1]) {
		t.Fatalf("dynamic makespan %s not clearly below static %s", dynamic[1], static[1])
	}
	if f(t, dynamic[4]) != 48 || f(t, static[4]) != 48 {
		t.Fatal("jobs lost")
	}
}

func TestE03BoosterResidentWins(t *testing.T) {
	rows := run(t, "E03")
	for key, r := range rows {
		if f(t, r[5]) < 2 {
			t.Fatalf("halo %s: speedup %s below 2x", key, r[5])
		}
		if r[4] != "0" {
			t.Fatalf("booster-resident CN bytes = %s", r[4])
		}
	}
}

func TestE04ShapeHolds(t *testing.T) {
	rows := run(t, "E04")
	r1024 := rows["1024"]
	regB, regC := f(t, r1024[1]), f(t, r1024[2])
	cxC, cxB := f(t, r1024[3]), f(t, r1024[4])
	if regB < 0.6 || regC < 0.6 {
		t.Fatalf("regular codes should still scale at 1024 nodes: %v %v", regB, regC)
	}
	if cxC > 0.35 || cxB > 0.35 {
		t.Fatalf("complex codes should collapse at 1024 nodes: %v %v", cxC, cxB)
	}
	mixed := f(t, r1024[5])
	if mixed < cxC {
		t.Fatalf("DEEP mixed mapping %v should beat complex-on-cluster %v", mixed, cxC)
	}
}

func TestE05SpawnScalesNearLinearly(t *testing.T) {
	rows := run(t, "E05")
	t16, t256 := f(t, rows["16"][1]), f(t, rows["256"][1])
	if t256 <= t16 {
		t.Fatal("spawn latency not growing with process count")
	}
	ratio := t256 / t16
	if ratio < 4 || ratio > 32 {
		t.Fatalf("256/16 spawn ratio %.1f outside near-linear band", ratio)
	}
}

func TestE06DataflowBeatsForkJoin(t *testing.T) {
	rows := run(t, "E06")
	for _, w := range []string{"8", "16", "32"} {
		r := rows[w]
		if f(t, r[3]) <= 1.05 {
			t.Fatalf("workers %s: dataflow advantage %s too small", w, r[3])
		}
	}
	// Speedups grow with workers until saturation.
	if f(t, rows["16"][1]) <= f(t, rows["4"][1]) {
		t.Fatal("dataflow speedup not growing")
	}
}

func TestE07CrossGatewayPenalty(t *testing.T) {
	rows := run(t, "E07")
	small := rows["64"]
	if f(t, small[3]) <= f(t, small[1]) || f(t, small[3]) <= f(t, small[2]) {
		t.Fatal("crossing not slower than intra-fabric")
	}
	// Penalty shrinks with size (bandwidth dominates).
	if f(t, rows["16777216"][4]) >= f(t, rows["64"][4]) {
		t.Fatalf("penalty did not shrink: %s vs %s", rows["16777216"][4], rows["64"][4])
	}
}

func TestE08VeloRMACrossover(t *testing.T) {
	rows := run(t, "E08")
	if rows["64"][5] != "velo" {
		t.Fatalf("64 B faster engine = %s", rows["64"][5])
	}
	small := f(t, rows["64"][1])
	rmaSmall := f(t, rows["64"][2])
	if rmaSmall < small*1.5 {
		t.Fatalf("rendezvous handshake penalty too small: %v vs %v", rmaSmall, small)
	}
	// Large transfers: within 10%.
	big := rows["4194304"]
	if f(t, big[2]) > f(t, big[1])*1.1 {
		t.Fatalf("RMA not competitive at 4 MiB: %s vs %s", big[2], big[1])
	}
}

func TestE09TorusTrends(t *testing.T) {
	rows := run(t, "E09")
	small, large := rows["torus3d-2x2x2"], rows["torus3d-6x6x6"]
	if small == nil || large == nil {
		t.Fatal("missing torus sizes")
	}
	// Diameter latency grows with size; neighbour latency does not.
	if f(t, large[4]) <= f(t, small[4]) {
		t.Fatal("diameter latency not growing")
	}
	nbrDiff := f(t, large[3]) - f(t, small[3])
	if nbrDiff > 0.01 && nbrDiff/f(t, small[3]) > 0.05 {
		t.Fatalf("neighbour latency changed with torus size: %v vs %v", large[3], small[3])
	}
	// Aggregate throughput grows with node count.
	if f(t, large[5]) <= f(t, small[5]) {
		t.Fatal("aggregate throughput not growing")
	}
}

func TestE10LosslessAndInflation(t *testing.T) {
	rows := run(t, "E10")
	for _, rate := range []string{"0", "1.000e-04", "0.001", "0.010"} {
		r := rows[rate]
		if r == nil {
			t.Fatalf("missing rate %s (have %v)", rate, keys(rows))
		}
		if f(t, r[1]) != 200 || f(t, r[2]) != 0 {
			t.Fatalf("rate %s: delivered %s drops %s", rate, r[1], r[2])
		}
	}
	if f(t, rows["0.010"][3]) == 0 {
		t.Fatal("no retransmits at 1e-2")
	}
	if f(t, rows["0.010"][4]) <= 1 {
		t.Fatal("no latency inflation at 1e-2")
	}
}

func keys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestE11EnergyOrdering(t *testing.T) {
	rows := run(t, "E11")
	cl, bo, dp := rows["cluster-only"], rows["booster-only"], rows["deep"]
	// DEEP must beat cluster-only on GFlop/W by a wide margin.
	if f(t, dp[3]) < 2*f(t, cl[3]) {
		t.Fatalf("DEEP %s GF/W not >> cluster %s", dp[3], cl[3])
	}
	// Booster-only pays for the scalar part: slower than DEEP.
	if f(t, bo[1]) <= f(t, dp[1]) {
		t.Fatalf("booster-only time %s should exceed DEEP %s (scalar penalty)", bo[1], dp[1])
	}
	// KNC-class efficiency ballpark (the 5 GFlop/W claim, system level
	// lands lower than the card-level number but well above cluster).
	if f(t, dp[3]) < 1.0 {
		t.Fatalf("DEEP efficiency %s implausibly low", dp[3])
	}
}

func TestE12ScalingLaws(t *testing.T) {
	rows := run(t, "E12")
	y2008, y2018 := rows["2008"], rows["2018"]
	// Many-core gains x100/decade, multi-core only x10.
	many := f(t, y2018[3]) / f(t, y2008[3])
	multi := f(t, y2018[2]) / f(t, y2008[2])
	if many < 80 || many > 120 {
		t.Fatalf("many-core decade factor %.1f, want about 100", many)
	}
	if multi < 8 || multi > 12 {
		t.Fatalf("multi-core decade factor %.1f, want about 10", multi)
	}
	// Scalar essentially flat (<2x per decade).
	if f(t, y2018[1])/f(t, y2008[1]) > 2 {
		t.Fatal("scalar performance scaled too much")
	}
}

func TestE13EfficiencyDegradesWithMTBFAndScale(t *testing.T) {
	rows := run(t, "E13")
	effDyn := func(key string) float64 { return f(t, rows[key][4]) }
	effStatic := func(key string) float64 { return f(t, rows[key][3]) }
	// Small machine: the same per-node MTBF that ruins 4096 nodes
	// barely dents 64 nodes.
	if effDyn("64/1000") < 0.9*effDyn("64/inf") {
		t.Fatalf("64 nodes already degraded at MTBF 1000: %v vs %v",
			effDyn("64/1000"), effDyn("64/inf"))
	}
	// Large machine: efficiency collapses as MTBF shrinks.
	if effDyn("4096/1000") > 0.5*effDyn("4096/inf") {
		t.Fatalf("4096 nodes not degraded: %v vs %v",
			effDyn("4096/1000"), effDyn("4096/inf"))
	}
	// Monotone degradation with failure rate at 4096, dynamic.
	for _, pair := range [][2]string{
		{"4096/inf", "4096/16000"}, {"4096/16000", "4096/4000"}, {"4096/4000", "4096/1000"},
	} {
		if effDyn(pair[1]) >= effDyn(pair[0]) {
			t.Fatalf("efficiency not degrading: %s %v -> %s %v",
				pair[0], effDyn(pair[0]), pair[1], effDyn(pair[1]))
		}
	}
	// Scale fragility at fixed per-node MTBF.
	if effDyn("4096/1000") > effDyn("64/1000")/2 {
		t.Fatalf("no scale penalty: %v at 4096 vs %v at 64",
			effDyn("4096/1000"), effDyn("64/1000"))
	}
	// Dynamic assignment degrades more gracefully than static,
	// everywhere.
	for key := range rows {
		if effDyn(key) <= effStatic(key) {
			t.Fatalf("%s: dynamic %v not above static %v", key, effDyn(key), effStatic(key))
		}
	}
}

func TestE14DalyIntervalNearOptimal(t *testing.T) {
	rows := run(t, "E14")
	var dalyKey string
	for key := range rows {
		if strings.HasPrefix(key, "daly=") {
			dalyKey = key
		}
	}
	if dalyKey == "" {
		t.Fatalf("no daly row in %v", keys(rows))
	}
	best := f(t, rows[dalyKey][1])
	for key, r := range rows {
		if key == dalyKey {
			continue
		}
		if wall := f(t, r[1]); wall <= best {
			t.Fatalf("interval %s wall %v beats daly %v", key, wall, best)
		}
	}
	// No checkpointing pays full restarts: at least 2x the Daly wall.
	if f(t, rows["none"][1]) < 2*best {
		t.Fatalf("restart-from-scratch %v not clearly worse than daly %v",
			f(t, rows["none"][1]), best)
	}
	// The measured wall tracks the first-order analytic model.
	analytic := f(t, rows[dalyKey][4])
	if math.Abs(best-analytic)/analytic > 0.25 {
		t.Fatalf("measured %v vs analytic %v beyond 25%%", best, analytic)
	}
}

func TestAllExperimentsRenderAndAreDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, e := range All() {
		t1, err1 := e.Run(ctx, DefaultConfig())
		t2, err2 := e.Run(ctx, nil) // nil cfg must behave like DefaultConfig
		if err1 != nil || err2 != nil {
			t.Fatalf("%s failed: %v / %v", e.ID, err1, err2)
		}
		var a, b strings.Builder
		if err := t1.Render(&a); err != nil {
			t.Fatalf("%s render: %v", e.ID, err)
		}
		if err := t2.Render(&b); err != nil {
			t.Fatalf("%s render: %v", e.ID, err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s not deterministic", e.ID)
		}
		if len(t1.Notes) == 0 {
			t.Fatalf("%s has no paper-vs-measured notes", e.ID)
		}
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"E01", "E04", "E13"} {
		e, _ := Get(id)
		if _, err := e.Run(ctx, DefaultConfig()); err == nil {
			t.Fatalf("%s ignored a cancelled context", id)
		}
	}
}

func TestConfigSeedOverrideChangesSeededExperiments(t *testing.T) {
	e, _ := Get("E02")
	def, err := e.Run(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	alt, err := e.Run(context.Background(), &Config{Seed: 12345, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := def.Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := alt.Render(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Fatal("seed override did not change the E02 job mix")
	}
}

func TestConfigScaleChangesWorkloadSize(t *testing.T) {
	e, _ := Get("E10")
	tab, err := e.Run(context.Background(), &Config{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Half scale: 100 messages delivered instead of 200 at rate 0.
	if tab.Rows[0][1] != "100" {
		t.Fatalf("scaled E10 delivered %s messages, want 100", tab.Rows[0][1])
	}
}

func TestE16EnergyToSolutionShape(t *testing.T) {
	rows := run(t, "E16")
	for _, n := range []string{"8", "27", "64"} {
		cl, bo, dp := rows["cluster-only/"+n], rows["booster-only/"+n], rows["deep/"+n]
		// DEEP beats cluster-only on GFlop/W by a wide margin at
		// every scale — the paper's positioning claim.
		if f(t, dp[4]) < 2*f(t, cl[4]) {
			t.Fatalf("n=%s: DEEP %s GF/W not >> cluster %s", n, dp[4], cl[4])
		}
		// Booster-only pays the scalar crawl in time and sits between
		// the two in efficiency.
		if f(t, bo[2]) <= f(t, dp[2]) {
			t.Fatalf("n=%s: booster-only time %s should exceed DEEP %s", n, bo[2], dp[2])
		}
		if f(t, bo[4]) <= f(t, cl[4]) || f(t, bo[4]) >= f(t, dp[4]) {
			t.Fatalf("n=%s: booster-only GF/W %s not between cluster %s and DEEP %s",
				n, bo[4], cl[4], dp[4])
		}
	}
	// Sleep gating amortises the fixed cluster share: co-scheduled
	// GFlop/W must not degrade as the machine grows.
	if f(t, rows["deep/64"][4]) < f(t, rows["deep/8"][4]) {
		t.Fatalf("DEEP GF/W degrades with scale: %s at 64 vs %s at 8",
			rows["deep/64"][4], rows["deep/8"][4])
	}
	// The machine-readable total is deterministic to the last bit; any
	// change to the energy model moves it and must re-pin it here.
	e, _ := Get("E16")
	tab, err := e.Run(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.Summary["joules"], 900041.8251425631; got != want {
		t.Fatalf("E16 joules summary = %v, want %v", got, want)
	}
}

// TestEnergyColumnsAppendEverywhere: with Config.Energy every
// registered experiment grows exactly two extra columns (E16 carries
// its energy columns unconditionally), and the energy-off output is
// untouched — the byte-identity guarantee the goldens enforce.
func TestEnergyColumnsAppendEverywhere(t *testing.T) {
	ctx := context.Background()
	for _, e := range All() {
		off, err := e.Run(ctx, DefaultConfig())
		if err != nil {
			t.Fatalf("%s (energy off): %v", e.ID, err)
		}
		on, err := e.Run(ctx, &Config{Scale: 1, Energy: true})
		if err != nil {
			t.Fatalf("%s (energy on): %v", e.ID, err)
		}
		extra := 2
		if e.ID == "E11" || e.ID == "E16" {
			extra = 0 // inherently energy experiments
		}
		if len(on.Headers) != len(off.Headers)+extra {
			t.Fatalf("%s: energy on has %d headers, off has %d (want +%d: %v)",
				e.ID, len(on.Headers), len(off.Headers), extra, on.Headers)
		}
		if extra > 0 {
			if h := on.Headers[len(on.Headers)-2]; h != "joules" {
				t.Fatalf("%s: penultimate energy header %q", e.ID, h)
			}
			joulesCol := len(on.Headers) - 2
			for i, row := range on.Rows {
				if len(row) != len(on.Headers) {
					t.Fatalf("%s row %d has %d cells, want %d", e.ID, i, len(row), len(on.Headers))
				}
				if v := f(t, row[joulesCol]); v <= 0 {
					t.Fatalf("%s row %d reports %v joules", e.ID, i, v)
				}
				// The base columns must be unchanged by metering.
				for c := range off.Rows[i] {
					if row[c] != off.Rows[i][c] {
						t.Fatalf("%s row %d col %d changed under -energy: %q vs %q",
							e.ID, i, c, row[c], off.Rows[i][c])
					}
				}
			}
		}
	}
}

// TestEnergyDeterministicAcrossFidelity: E16's energy totals are part
// of its table; the determinism test already pins the rendered bytes,
// this pins the machine-readable summary across fidelities too.
func TestEnergyDeterministicAcrossFidelity(t *testing.T) {
	e, _ := Get("E16")
	ctx := context.Background()
	var totals []float64
	for _, fid := range []fabric.Fidelity{fabric.FidelityPacket, fabric.FidelityFlow} {
		tab, err := e.Run(ctx, &Config{Scale: 1, Fidelity: fid})
		if err != nil {
			t.Fatalf("E16 (%v): %v", fid, err)
		}
		totals = append(totals, tab.Summary["joules"])
	}
	if totals[0] != totals[1] {
		t.Fatalf("E16 joules vary with fidelity: %v", totals)
	}
}
