package expt

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fabric"
)

// resolved is every effective setting a Config hands an experiment,
// under representative experiment defaults.
type resolved struct {
	seed                         uint64
	fidelity                     fabric.Fidelity
	energy                       bool
	domains, maxWindow, maxNodes int
	sizes                        [3]int
}

func resolve(c *Config) resolved {
	domains, maxWindow := c.kernel()
	return resolved{
		seed: c.seed(42), fidelity: c.fidelity(fabric.FidelityFlow), energy: c.energyOn(),
		domains: domains, maxWindow: maxWindow, maxNodes: c.maxNodes(e15SeqMaxNodes),
		sizes: [3]int{c.scale(1), c.scale(7), c.scale(200)},
	}
}

// TestSpecCanonicalises: every pair of run settings that deep.Spec's
// canonical form writes as one content key resolves to one run here —
// a spelled-out default and the zero value hand every experiment the
// same seed, fidelity, domain count, window cap, node ceiling and
// workload sizes — so a cache or store hit never returns another run's
// table. Settings the key keeps apart resolve apart.
func TestSpecCanonicalises(t *testing.T) {
	zero := resolve(nil)
	for name, c := range map[string]*Config{
		"empty config":       {},
		"default config":     defaultConfig(),
		"one domain":         {Domains: 1},
		"fixed windows":      {MaxWindow: 1},
		"negative window":    {MaxWindow: -2},
		"negative max nodes": {MaxNodes: -5},
		"every default":      {Scale: 1, Fidelity: fabric.FidelityDefault, Domains: 1, MaxWindow: 1},
	} {
		if got := resolve(c); got != zero {
			t.Errorf("%s resolves to %+v, the nil config to %+v", name, got, zero)
		}
	}
	if auto, exact := resolve(&Config{Domains: -1}), resolve(&Config{Domains: runtime.GOMAXPROCS(0)}); auto != exact {
		t.Errorf("domains -1 resolves to %+v, domains GOMAXPROCS to %+v", auto, exact)
	}
	for name, c := range map[string]*Config{
		"seed":       {Seed: 7},
		"scale":      {Scale: 2},
		"fidelity":   {Fidelity: fabric.FidelityPacket},
		"energy":     {Energy: true},
		"domains":    {Domains: 2},
		"max window": {MaxWindow: 8},
		"max nodes":  {MaxNodes: 1000},
	} {
		if resolve(c) == zero {
			t.Errorf("%s resolves like the nil config", name)
		}
	}
}

// TestConfigSpecPreservesRun: a Config that spells every default out —
// the negative window cap and node ceiling the Runner tolerates
// included — renders byte-identically to the published default on
// experiments that read each knob (E10 scales its message count, E02
// its job mix, E15 reads the domain count, window cap and node ceiling).
func TestConfigSpecPreservesRun(t *testing.T) {
	render := func(id string, cfg *Config) string {
		t.Helper()
		e, _ := Get(id)
		tab, err := e.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s %+v: %v", id, cfg, err)
		}
		var b strings.Builder
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, c := range []struct {
		id            string
		bare, spelled *Config
	}{
		{"E10", nil, &Config{Scale: 1, Fidelity: fabric.FidelityDefault, Domains: 1, MaxWindow: -2, MaxNodes: -5}},
		{"E02", nil, &Config{Scale: 1, Domains: 1, MaxWindow: 1}},
		{"E15", &Config{MaxNodes: 1000}, &Config{Scale: 1, Domains: 1, MaxWindow: 1, MaxNodes: 1000}},
	} {
		if bare, spelled := render(c.id, c.bare), render(c.id, c.spelled); bare != spelled {
			t.Errorf("%s under %+v:\n%s\nunder %+v:\n%s", c.id, c.spelled, spelled, c.bare, bare)
		}
	}
}
