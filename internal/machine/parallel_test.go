package machine

import (
	"testing"

	"repro/internal/fabric"
)

// TestFabricParClamping: torus domain counts clamp to the z planes and
// never drop below one.
func TestFabricParClamping(t *testing.T) {
	if doms, _ := BoosterFabricPar(4, 4, 3, 64, fabric.FidelityFlow, 1); doms.Domains() != 3 {
		t.Fatalf("torus domains not clamped to z planes: %d", doms.Domains())
	}
	if doms, _ := BoosterFabricPar(4, 4, 3, -2, fabric.FidelityFlow, 1); doms.Domains() != 1 {
		t.Fatalf("torus k<0 not clamped to 1: %d", doms.Domains())
	}
}
