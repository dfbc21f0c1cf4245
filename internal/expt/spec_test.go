package expt_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/deep"
	"repro/internal/expt"
	"repro/internal/fabric"
)

// TestSpecConfigRoundTrip: an experiment spec's run knobs survive the
// trip through deep.Spec's wire form, normalisation and the Runner into
// the Config the experiment sees — the Runner's table renders
// byte-identically to a direct Run under the equivalent Config.
func TestSpecConfigRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		body string
		cfg  *expt.Config
	}{
		{`{"experiment":"E10","scale":0.5,"fidelity":"flow"}`, &expt.Config{Scale: 0.5, Fidelity: fabric.FidelityFlow}},
		{`{"experiment":"E02","seed":12345,"energy":true,"scale":1}`, &expt.Config{Seed: 12345, Energy: true}},
		{`{"experiment":"E15","domains":2,"max_window":8,"max_nodes":1000}`, &expt.Config{Domains: 2, MaxWindow: 8, MaxNodes: 1000}},
	} {
		spec := &deep.Spec{}
		if err := json.Unmarshal([]byte(c.body), spec); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		if err := spec.Normalize(); err != nil {
			t.Fatalf("%s: normalize: %v", c.body, err)
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again := &deep.Spec{}
		if err := json.Unmarshal(wire, again); err != nil {
			t.Fatalf("canonical form %s: %v", wire, err)
		}
		fid, err := deep.ParseFidelity(again.Fidelity)
		if err != nil {
			t.Fatalf("canonical form %s: %v", wire, err)
		}
		r := &deep.Runner{Seed: again.Seed, Scale: again.Scale, Fidelity: fid, Energy: again.Energy,
			Domains: again.Domains, MaxWindow: again.MaxWindow, MaxNodes: again.MaxNodes}
		rep, err := r.Run(ctx, again.Experiment)
		if err != nil {
			t.Fatalf("%s: runner: %v", wire, err)
		}
		e, _ := expt.Get(again.Experiment)
		direct, err := e.Run(ctx, c.cfg)
		if err != nil {
			t.Fatalf("%s %+v: %v", again.Experiment, c.cfg, err)
		}
		var viaSpec, viaConfig strings.Builder
		if err := rep.Results[0].Table.Render(&viaSpec); err != nil {
			t.Fatal(err)
		}
		if err := direct.Render(&viaConfig); err != nil {
			t.Fatal(err)
		}
		if viaSpec.String() != viaConfig.String() {
			t.Errorf("%s through the Runner:\n%s\ndirect under %+v:\n%s", wire, viaSpec.String(), c.cfg, viaConfig.String())
		}
	}
}
