package expt_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/deep"
	"repro/internal/expt"
)

// artefacts is every byte of one observed experiment run that a user,
// a golden file or deepd's cache can compare against another run's.
type artefacts struct {
	table, trace, csv, json []byte
	hash                    string
}

// cell is one point of the determinism matrix: a registry experiment
// at a fabric fidelity, its sweep bounded to maxNodes when positive.
type cell struct {
	id       string
	fid      deep.Fidelity
	maxNodes int
}

func (c cell) String() string {
	name := c.id + "/" + c.fid.String()
	if c.maxNodes > 0 {
		name += fmt.Sprintf("/maxnodes%d", c.maxNodes)
	}
	return name
}

// observedRun runs one matrix cell through the public Runner with
// tracing and metrics sampling on and renders every artefact.
func observedRun(c cell) (artefacts, error) {
	var a artefacts
	r := &deep.Runner{Fidelity: c.fid, MaxNodes: c.maxNodes, Tracing: true, MetricsEvery: 0.5}
	rep, err := r.Run(context.Background(), c.id)
	if err != nil {
		return a, err
	}
	var table, trace, csv, js bytes.Buffer
	if err := rep.Results[0].Table.Render(&table); err != nil {
		return a, err
	}
	if err := rep.WriteChromeTrace(&trace); err != nil {
		return a, err
	}
	if err := rep.WriteMetricsCSV(&csv); err != nil {
		return a, err
	}
	if err := (deep.JSONSink{}).Write(&js, rep); err != nil {
		return a, err
	}
	if a.hash, err = deep.ContentHash(rep.Results[0].Table); err != nil {
		return a, err
	}
	a.table, a.trace, a.csv, a.json = table.Bytes(), trace.Bytes(), csv.Bytes(), js.Bytes()
	return a, nil
}

// differing names the artefacts that differ between a and b.
func differing(a, b artefacts) []string {
	var diff []string
	for _, c := range []struct {
		what string
		a, b []byte
	}{
		{"table", a.table, b.table},
		{"Chrome trace", a.trace, b.trace},
		{"metrics CSV", a.csv, b.csv},
		{"result JSON", a.json, b.json},
		{"content hash", []byte(a.hash), []byte(b.hash)},
	} {
		if !bytes.Equal(c.a, c.b) {
			diff = append(diff, fmt.Sprintf("%s (%d vs %d bytes)", c.what, len(c.a), len(c.b)))
		}
	}
	return diff
}

// runTwice runs c twice at the same time and fails t unless every
// artefact of the pair is byte-identical; it returns the first run.
func runTwice(t *testing.T, c cell) artefacts {
	t.Helper()
	var runs [2]artefacts
	var errs [2]error
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = observedRun(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if diff := differing(runs[0], runs[1]); diff != nil {
		t.Errorf("two concurrent runs of %v differ: %v", c, diff)
	}
	return runs[0]
}

// TestDeterminismMatrix closes the class of bug that kept tier-1 red:
// a host-dependent value (then: sync.Pool's hit rate, exported as the
// sim_pool_hit_rate gauge) reaching a byte-compared artefact. Every
// cell runs twice at the same time, beside the other cells' runs, and
// every artefact of the pair must be byte-identical: rendered table,
// Chrome trace, metrics CSV, result JSON and content hash. Nothing GC-,
// scheduler- or wall-clock-dependent survives that.
//
// The cells are every registry experiment at its default fidelity —
// packet for all but E15, which sweeps at flow — plus E15 at packet.
// -short skips only E15's packet-fidelity sweep (100k nodes packet by
// packet). TestFidelityDeterminism is the flow axis of the same check.
func TestDeterminismMatrix(t *testing.T) {
	var cells []cell
	for _, id := range expt.IDs() {
		cells = append(cells, cell{id: id, fid: deep.DefaultFidelity})
	}
	if !testing.Short() {
		cells = append(cells, cell{id: "E15", fid: deep.Packet})
	}
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			runTwice(t, c)
		})
	}
}

// TestFidelityDeterminism is the flow axis of the determinism matrix:
// every registry experiment runs twice at flow fidelity, and every
// artefact of the pair must be byte-identical. Where messages contend
// for a link the flow model is an approximation (E09), but an
// approximation, not a different random process, so it must repeat.
func TestFidelityDeterminism(t *testing.T) {
	for _, id := range expt.IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runTwice(t, cell{id: id, fid: deep.Flow})
		})
	}
}

// TestE15FlowMatchesPacket: no two E15 messages share a link queue, so
// the flow model is exact there and E15 at flow must equal E15 at
// packet in every artefact — which is what lets the 100k-node sweep
// default to flow. The metrics CSV stamps samples to the picosecond,
// so a flow delivery off by one picosecond shows even where the table
// rounds it away. -short bounds the pair to 5000 nodes rather than run
// the packet sweep at 100k nodes.
func TestE15FlowMatchesPacket(t *testing.T) {
	flow, packet := cell{id: "E15", fid: deep.Flow}, cell{id: "E15", fid: deep.Packet}
	if testing.Short() {
		flow.maxNodes, packet.maxNodes = 5000, 5000
	}
	var a, b artefacts
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a, errA = observedRun(flow) }()
	go func() { defer wg.Done(); b, errB = observedRun(packet) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if diff := differing(a, b); diff != nil {
		t.Errorf("%v and %v differ: %v\n--- %v ---\n%s\n--- %v ---\n%s", flow, packet, diff, flow, a.table, packet, b.table)
	}
}
