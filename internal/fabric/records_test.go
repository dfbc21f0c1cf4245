package fabric

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestRecordsArePointerFree fails on any field of the per-message flow
// record, or of the packet state its events carry, that the GC would
// have to walk: with a pointer, slice, map, func, interface, chan or
// string in it, a halo burst's records become scanned memory again.
// (message keeps its route buffer: it lives on the packet path only.)
func TestRecordsArePointerFree(t *testing.T) {
	for _, rec := range []any{flow{}, packet{}} {
		typ := reflect.TypeOf(rec)
		if bad := gcFields(typ, typ.Name()); len(bad) > 0 {
			t.Errorf("%s record holds GC-visible fields: %v", typ.Name(), bad)
		}
	}
}

// TestIdleNetworkHandsBackPages drains a burst larger than a page of
// flow records and checks that the network then keeps one page of each
// store, every callback on it nil, and starts its indices over.
func TestIdleNetworkHandsBackPages(t *testing.T) {
	eng := sim.New()
	tor := topology.NewTorus3D(8, 8, 8)
	net := MustNetwork(eng, tor, Extoll, 1)
	net.SetFidelity(FidelityFlow)
	delivered := 0
	for round := 0; round < 2; round++ {
		for id := 0; id < tor.Nodes(); id++ {
			x, y, z := tor.Coord(topology.NodeID(id))
			net.Send(topology.NodeID(id), tor.ID(x+1, y, z), 2048, func(sim.Time, error) { delivered++ })
			net.Send(topology.NodeID(id), tor.ID(x, y+1, z), 2048, func(sim.Time, error) { delivered++ })
		}
		if net.nflows <= sim.PageLen {
			t.Fatalf("round %d: a burst of %d flows issued only %d indices", round, 2*tor.Nodes(), net.nflows)
		}
		eng.Run()
		if net.live != 0 || net.nflows != 0 || net.freeFlow != 0 {
			t.Fatalf("round %d: drained network has %d live flows, %d indices issued, free list head %d",
				round, net.live, net.nflows, net.freeFlow)
		}
		if net.flows.Len() != sim.PageLen || net.dones.Len() != sim.PageLen {
			t.Fatalf("round %d: drained network kept room for %d flows and %d callbacks, want one page",
				round, net.flows.Len(), net.dones.Len())
		}
		for i := int32(0); i < sim.PageLen; i++ {
			if *net.dones.At(i) != nil {
				t.Fatalf("round %d: kept callback %d is not nil", round, i)
			}
		}
	}
	if delivered != 4*tor.Nodes() {
		t.Fatalf("%d messages delivered, want %d", delivered, 4*tor.Nodes())
	}
}

// gcFields lists the fields of typ, recursively, that the GC walks.
func gcFields(typ reflect.Type, path string) []string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Func, reflect.Interface, reflect.Chan, reflect.String:
		return []string{path + " " + typ.String()}
	case reflect.Array:
		return gcFields(typ.Elem(), path+"[]")
	case reflect.Struct:
		var bad []string
		for i := 0; i < typ.NumField(); i++ {
			bad = append(bad, gcFields(typ.Field(i).Type, path+"."+typ.Field(i).Name)...)
		}
		return bad
	}
	return nil
}

// BenchmarkHaloBurst is one domain's share of E15's largest halo
// exchange on one engine: every node of the lower half of a 47^3 torus
// sends 2 KiB to each of its six neighbours at one instant over the
// flow path, some 305 000 one-hop messages whose events and records are
// all live at once — the burst the GC walked while a record held a
// pointer. It reports the cost per message and the collections per op.
func BenchmarkHaloBurst(b *testing.B) {
	tor := topology.NewTorus3D(47, 47, 47)
	slab := tor.Nodes() / 2
	done := func(sim.Time, error) {}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		net := MustNetwork(eng, tor, Extoll, 1)
		net.SetFidelity(FidelityFlow)
		for id := 0; id < slab; id++ {
			src := topology.NodeID(id)
			x, y, z := tor.Coord(src)
			for _, nb := range [...]topology.NodeID{
				tor.ID(x+1, y, z), tor.ID(x-1, y, z),
				tor.ID(x, y+1, z), tor.ID(x, y-1, z),
				tor.ID(x, y, z+1), tor.ID(x, y, z-1),
			} {
				net.Send(src, nb, 2048, done)
			}
		}
		eng.Run()
		if net.Stats.FlowMessages != uint64(6*slab) {
			b.Fatalf("%d of %d messages took the flow path", net.Stats.FlowMessages, 6*slab)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	msgs := float64(b.N * 6 * slab)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/msgs, "B/msg")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}
